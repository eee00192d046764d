//! Pipelined-client scaling probe: single-client throughput vs the
//! in-flight window, plus the location cache's effect on repeat GETs.
//!
//! The paper's client-active scheme deliberately keeps the server CPU off
//! the PUT critical path, so a serial client is latency-bound: one
//! allocation RPC + one RDMA write per PUT, ~6.5 µs each, caps a single
//! client near 0.15 Mops no matter how fast the fabric is. The pipelined
//! client (`efactory::PipelinedClient`) keeps `window` operations in
//! flight on independent QPs — the same lever Kashyap et al. pull for
//! persistence batching — and this probe records the scaling curve, with
//! the acceptance bound that window=16 stays ≥ 2× window=1.
//!
//! The second table measures the client-side location cache on a read-only
//! mix: repeat GETs skip the bucket-probe RDMA read (one object read
//! instead of probe + object), cutting pure-path read latency.
//!
//! Always writes `BENCH_pipeline.json` (override with `--json`).

use efactory_bench::{scaled_ops, ReportSink};
use efactory_harness::{cluster, Bound, ExperimentSpec, SystemKind};
use efactory_ycsb::Mix;

const DOORBELL: usize = 16;
/// Acceptance bound of the pipelined client: window=16 holds at least
/// this multiple of window=1 throughput.
const MIN_WINDOW16_SPEEDUP: f64 = 2.0;

fn spec(mix: Mix, clients: usize, window: usize, loc_cache: bool) -> ExperimentSpec {
    let mut s = ExperimentSpec::paper(SystemKind::EFactory, mix, 256);
    s.clients = clients;
    s.ops_per_client = scaled_ops(8_000);
    s.doorbell_batch = DOORBELL;
    s.window = window;
    s.loc_cache = loc_cache;
    s
}

fn main() {
    let mut sink = ReportSink::with_default_path("pipeline-scaling", Some("BENCH_pipeline.json"));
    println!("eFactory pipelined client · 256B values · 1 client · doorbell_batch={DOORBELL}");
    println!(
        "{:<26} {:>7} {:>9} {:>10} {:>10} {:>9}",
        "workload", "window", "Mops", "p50 µs", "p99 µs", "speedup"
    );
    let mut base_mops = 0.0;
    let mut speedup = 0.0;
    for window in [1usize, 4, 16] {
        let s = spec(Mix::UpdateOnly, 1, window, false);
        let r = cluster::run(&s);
        if window == 1 {
            base_mops = r.mops;
        }
        speedup = r.mops / base_mops;
        println!(
            "{:<26} {:>7} {:>9.3} {:>10.2} {:>10.2} {:>8.2}x",
            "Update-only/256B",
            window,
            r.mops,
            r.all.p50_ns as f64 / 1000.0,
            r.all.p99_ns as f64 / 1000.0,
            speedup,
        );
        sink.add(&format!("Update-only/256B/window{window}"), &s, &r);
    }
    sink.bound(
        "pipeline_window16_speedup",
        speedup,
        Bound::Min(MIN_WINDOW16_SPEEDUP),
    );

    println!();
    println!("location cache · YCSB-C (100% GET) · 8 clients · window=1");
    println!(
        "{:<26} {:>7} {:>9} {:>10} {:>10}",
        "workload", "cache", "Mops", "p50 µs", "p99 µs"
    );
    for loc_cache in [false, true] {
        let s = spec(Mix::C, 8, 1, loc_cache);
        let r = cluster::run(&s);
        println!(
            "{:<26} {:>7} {:>9.3} {:>10.2} {:>10.2}",
            "YCSB-C/256B",
            if loc_cache { "on" } else { "off" },
            r.mops,
            r.all.p50_ns as f64 / 1000.0,
            r.all.p99_ns as f64 / 1000.0,
        );
        sink.add(
            &format!("YCSB-C/256B/loc_cache{}", u8::from(loc_cache)),
            &s,
            &r,
        );
    }

    // The combined configuration: pipelined window + location cache on the
    // paper's mixed workload, the everything-on data point of the
    // trajectory.
    let s = spec(Mix::A, 1, 16, true);
    let r = cluster::run(&s);
    println!();
    println!(
        "{:<26} {:>7} {:>9.3} {:>10.2} {:>10.2}   (window=16 + loc_cache)",
        "YCSB-A/256B",
        16,
        r.mops,
        r.all.p50_ns as f64 / 1000.0,
        r.all.p99_ns as f64 / 1000.0,
    );
    sink.add("YCSB-A/256B/window16+loc_cache", &s, &r);
    sink.write();
}
