//! Workspace-level observability guarantees: deterministic traces, full
//! counter coverage, and schema-stable JSON reports out of the harness.

use efactory_harness::{cluster, Cleaning, ExperimentSpec, Report, SystemKind};
use efactory_obs::Obs;
use efactory_rnic::CostModel;
use efactory_ycsb::Mix;

fn tiny_spec() -> ExperimentSpec {
    ExperimentSpec {
        system: SystemKind::EFactory,
        mix: Mix::A,
        value_len: 128,
        key_len: 16,
        clients: 2,
        ops_per_client: 40,
        record_count: 32,
        seed: 9,
        cleaning: Cleaning::Disabled,
        force_clean: false,
        shards: 1,
        doorbell_batch: 0,
        replicas: 0,
        fault_at: None,
        fault_plan: None,
        scrub: false,
        window: 1,
        loc_cache: false,
        snap_readers: 0,
        nodes: 1,
        migrate_at: None,
        exec: None,
    }
}

/// Same seed ⇒ byte-identical Chrome trace and registry JSON. This is the
/// whole point of tracing on the virtual clock: a trace diff between two
/// commits is a behavior diff, never scheduler noise.
#[test]
fn same_seed_runs_emit_byte_identical_traces() {
    let go = || {
        let obs = Obs::with_trace_capacity(1 << 16);
        let r = cluster::run_observed(&tiny_spec(), CostModel::default(), &obs);
        // Replay determinism only holds while the ring kept everything: a
        // drop would shift which records survive and silently skew folds.
        assert_eq!(obs.tracer.dropped(), 0, "tiny run must not drop records");
        assert!(!obs.tracer.is_empty(), "a traced run keeps its trace");
        (obs.tracer.to_chrome_json(), obs.registry.to_json(), r)
    };
    let (trace_a, reg_a, ra) = go();
    let (trace_b, reg_b, rb) = go();
    assert_eq!(trace_a, trace_b, "trace must be byte-identical across runs");
    assert_eq!(reg_a, reg_b, "registry must be byte-identical across runs");
    assert_eq!(ra.counters, rb.counters);
    // The trace actually covers the op phases, not just metadata.
    for name in ["rpc_alloc", "rdma_write", "pure_read", "crc_verify", "send"] {
        assert!(
            trace_a.contains(&format!("\"name\":\"{name}\"")),
            "missing {name}"
        );
    }
}

/// The end-of-run counter snapshot must cover all three subsystems
/// (server, pmem, fabric), be sorted, and carry a coherent latency summary
/// including p99.9.
#[test]
fn run_counters_cover_all_subsystems() {
    let spec = tiny_spec();
    let obs = Obs::new();
    let r = cluster::run_observed(&spec, CostModel::default(), &obs);
    let names: Vec<&str> = r.counters.iter().map(|(n, _)| n.as_str()).collect();
    for required in [
        "server.puts",
        "server.gets",
        "server.bg_verified",
        "pmem.bytes_written",
        "pmem.flushes",
        "fabric.sends",
        "fabric.rdma_writes",
        "fabric.bytes_on_wire",
    ] {
        assert!(
            names.contains(&required),
            "{required} missing from {names:?}"
        );
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted, "snapshot must be lexicographically sorted");
    let get = |n: &str| r.counters.iter().find(|(k, _)| k == n).unwrap().1;
    // The load counts one PUT per record it links, and the spec injects
    // no faults, so no PUT is re-executed: the server counts exactly the
    // records and the measured PUTs.
    assert_eq!(get("server.puts"), spec.record_count + r.put.count);
    assert!(get("pmem.bytes_written") > 0);
    assert!(get("fabric.bytes_on_wire") > 0);
    assert_eq!(r.seed, spec.seed);
    // Quantiles are ordered: p50 ≤ p99 ≤ p99.9 ≤ max.
    assert!(r.all.p50_ns <= r.all.p99_ns);
    assert!(r.all.p99_ns <= r.all.p999_ns);
    assert!(r.all.p999_ns <= r.all.max_ns);
}

/// The JSON run report carries the documented schema header, the cost-model
/// constants, and per-entry counters — and renders identically for
/// identical seeds.
#[test]
fn json_report_is_schema_stamped_and_deterministic() {
    let spec = tiny_spec();
    let render = || {
        let r = cluster::run(&spec);
        let mut rep = Report::new("observability-test");
        rep.add("tiny", &spec, &r);
        rep.to_json()
    };
    let a = render();
    assert_eq!(a, render(), "same seed must render byte-identical reports");
    assert!(a.starts_with("{\"schema\":\"efactory-run-report/v3\""));
    for field in [
        "\"cost_model\":",
        "\"net_one_way_ns\":",
        "\"p999_ns\":",
        "\"counters\":",
        "\"seed\":9",
    ] {
        assert!(a.contains(field), "report missing {field}");
    }
}

/// A run pays for tracing only when it asks for it: a default `Obs` keeps
/// zero trace records, its ring drops nothing, and `cluster::run` (which
/// builds one) reports `obs.trace_dropped == 0` and folds no breakdown.
#[test]
fn default_run_keeps_no_trace() {
    let spec = tiny_spec();
    let obs = Obs::default();
    let observed = cluster::run_observed(&spec, CostModel::default(), &obs);
    assert!(!obs.tracer.is_on());
    assert_eq!((obs.tracer.len(), obs.tracer.dropped()), (0, 0));
    let r = cluster::run(&spec);
    assert!(r.total_ops > 0);
    let dropped = r.counters.iter().find(|(n, _)| n == "obs.trace_dropped");
    assert_eq!(dropped, Some(&("obs.trace_dropped".to_string(), 0)));
    assert!(r.breakdown.is_none() && observed.breakdown.is_none());
    assert_eq!(r.counters, observed.counters, "both entry points agree");
}
