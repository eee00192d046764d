//! Op-path properties asserted **purely from the recorded trace**: the
//! observability layer must let an operator reconstruct what the hybrid
//! read and the background verifier actually did, without peeking at
//! internal state. Each test opts in to tracing with
//! `Obs::with_trace_capacity`; a default `Obs` records no trace.

use std::sync::Arc;

use efactory::client::{Client, ClientConfig, GetOutcome};
use efactory::layout::{flags, ObjHeader};
use efactory::log::StoreLayout;
use efactory::server::{Server, ServerConfig};
use efactory_obs::{Obs, RecordKind, Subsystem};
use efactory_rnic::{CostModel, Fabric};
use efactory_sim as sim;
use efactory_sim::Sim;

fn small_layout() -> StoreLayout {
    StoreLayout::new(256, 1 << 20, true)
}

/// A GET against a not-yet-durable object must take the RPC fallback — and
/// the trace must show **exactly one** `fallback_rpc` span for it. Once the
/// object is durable (persisted on demand by that very fallback), further
/// GETs go pure and add no more fallback spans.
#[test]
fn non_durable_get_emits_exactly_one_fallback_span() {
    let mut simu = Sim::new(5);
    let fabric = Fabric::new(CostModel::default());
    let server_node = fabric.add_node("server");
    let obs = Obs::with_trace_capacity(1 << 16);
    let cfg = ServerConfig {
        // Verifier effectively asleep: the PUT below stays non-durable
        // until a reader forces persistence.
        verify_idle: sim::millis(100),
        obs: obs.clone(),
        ..ServerConfig::default()
    };
    let server = Server::format(&fabric, &server_node, small_layout(), cfg);
    let f2 = Arc::clone(&fabric);
    let obs2 = obs.clone();
    simu.spawn("main", move || {
        server.start(&f2);
        let cnode = f2.add_node("client");
        let c = Client::connect(
            &f2,
            &cnode,
            &server_node,
            server.desc(),
            ClientConfig {
                obs: obs2,
                ..ClientConfig::default()
            },
        )
        .unwrap();
        c.put(b"k", b"fresh-value").unwrap();
        let (v, outcome) = c.get_traced(b"k").unwrap();
        assert_eq!(v.as_deref(), Some(&b"fresh-value"[..]));
        assert_eq!(outcome, GetOutcome::Fallback);
        // Now durable: the second read must stay on the pure path.
        let (_, outcome2) = c.get_traced(b"k").unwrap();
        assert_eq!(outcome2, GetOutcome::Pure);
        server.shutdown();
    });
    simu.run().expect_ok();
    assert!(!obs.tracer.is_empty(), "the opted-in tracer kept the run");

    let fallbacks = obs.tracer.records_named("fallback_rpc");
    assert_eq!(fallbacks.len(), 1, "exactly one fallback span expected");
    assert_eq!(fallbacks[0].kind, RecordKind::Span);
    assert_eq!(fallbacks[0].sub, Subsystem::Client);
    // Both GETs started on the pure path; the PUT's phases are also spans.
    assert_eq!(obs.tracer.records_named("pure_read").len(), 2);
    assert_eq!(obs.tracer.records_named("rpc_alloc").len(), 1);
    assert_eq!(obs.tracer.records_named("rdma_write").len(), 1);
    // The fallback forced persistence server-side: a flush/drain span on
    // the pmem lane must exist.
    assert!(!obs.tracer.records_named("flush_drain").is_empty());
}

/// An allocation whose value never arrives must time out in the background
/// verifier — visible in the trace as an `invalidate` instant event on the
/// verifier lane, carrying the object offset.
#[test]
fn verifier_timeout_emits_invalidate_event() {
    let mut simu = Sim::new(17);
    let fabric = Fabric::new(CostModel::default());
    let server_node = fabric.add_node("server");
    let obs = Obs::with_trace_capacity(1 << 16);
    let cfg = ServerConfig {
        verify_timeout: sim::micros(50),
        obs: obs.clone(),
        ..ServerConfig::default()
    };
    let server = Server::format(&fabric, &server_node, small_layout(), cfg);
    let f2 = Arc::clone(&fabric);
    simu.spawn("main", move || {
        let shared = server.start(&f2);
        // Issue the alloc RPC directly, then never write the value.
        let cnode = f2.add_node("client");
        let qp = f2.connect(&cnode, &server_node).unwrap();
        let req = efactory::protocol::Request::Put {
            key: b"abandoned".to_vec(),
            vlen: 64,
            crc: 0xBAD,
        };
        let resp = qp.rpc(req.encode()).unwrap();
        let efactory::protocol::Response::Put { obj_off, .. } =
            efactory::protocol::Response::decode(&resp).unwrap()
        else {
            panic!("expected put response");
        };
        sim::sleep(sim::millis(1)); // >> timeout
        let hdr = ObjHeader::read_from(&shared.pool, obj_off as usize);
        assert!(!hdr.has(flags::VALID), "must be invalidated");
        server.shutdown();
    });
    simu.run().expect_ok();
    assert!(!obs.tracer.is_empty(), "the opted-in tracer kept the run");

    let invalidates: Vec<_> = obs
        .tracer
        .records_named("invalidate")
        .into_iter()
        .filter(|r| r.sub == Subsystem::Verifier)
        .collect();
    assert_eq!(invalidates.len(), 1, "one verifier invalidation expected");
    assert_eq!(invalidates[0].kind, RecordKind::Instant);
    assert!(
        invalidates[0].args.iter().any(|(k, _)| *k == "off"),
        "invalidate event must carry the object offset"
    );
    // The verifier did scan (CRC spans exist) before giving up.
    assert!(!obs.tracer.records_named("crc_verify").is_empty());
}
