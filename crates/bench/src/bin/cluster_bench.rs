//! Cluster-layer throughput probe: multi-node placement cost and the
//! client-visible price of a live shard migration.
//!
//! Three lanes:
//!
//! * **Placement cost** — YCSB-A throughput on a 2-node and a 4-node
//!   cluster (4 shards, round-robin placement, 3-replica metadata
//!   service). Routing goes through the epoch-tagged placement map.
//! * **Migration window** — the same 2-node run with shard 0
//!   live-migrated mid-window: the copy/delta/verify stream runs off the
//!   client critical path.
//! * **Migration tail bound** — client p99.9 during the migrated run may
//!   inflate to at most [`MAX_MIGRATE_P999_INFLATION`] × the quiescent
//!   run's p99.9. The seal→flip window is the only stretch where client
//!   ops stall, so the tail is where a migration that blocks too long
//!   shows up first.
//!
//! Always writes `BENCH_cluster.json` (override with `--json`).

use efactory_bench::{scaled_ops, ReportSink};
use efactory_harness::{cluster, Bound, ExperimentSpec, RunResult, SystemKind};
use efactory_sim::millis;
use efactory_ycsb::Mix;

/// Acceptance bound: the migrated run's p99.9 over the quiescent run's.
/// The snapshot copy and the verify stream run off the client critical
/// path; only the seal→flip window stalls ops, and it must stay short.
const MAX_MIGRATE_P999_INFLATION: f64 = 5.0;

fn spec(nodes: usize, migrate_at: Option<u64>) -> ExperimentSpec {
    let mut s = ExperimentSpec::paper(SystemKind::EFactory, Mix::A, 256);
    s.ops_per_client = scaled_ops(4_000);
    s.nodes = nodes;
    s.shards = 4;
    s.migrate_at = migrate_at;
    s
}

fn main() {
    let mut sink = ReportSink::with_default_path("cluster-bench", Some("BENCH_cluster.json"));
    println!("eFactory cluster · YCSB-A · 256B values · 8 clients · 4 shards");
    println!(
        "{:<28} {:>9} {:>10} {:>10} {:>10}",
        "topology", "Mops", "p50 µs", "p99 µs", "p99.9 µs"
    );
    let mut row = |label: &str, s: &ExperimentSpec| -> RunResult {
        let r = cluster::run(s);
        println!(
            "{label:<28} {:>9.3} {:>10.2} {:>10.2} {:>10.2}",
            r.mops,
            r.all.p50_ns as f64 / 1000.0,
            r.all.p99_ns as f64 / 1000.0,
            r.all.p999_ns as f64 / 1000.0,
        );
        sink.add(label, s, &r);
        r
    };

    let n2 = row("Cluster/256B/nodes2", &spec(2, None));
    row("Cluster/256B/nodes4", &spec(4, None));
    // Live migration fired 2 ms into the measurement window: shard 0
    // moves to the other node while the eight clients keep operating and
    // retarget on WrongEpoch.
    let mig = row("Cluster/256B/nodes2/migrate", &spec(2, Some(millis(2))));

    let inflation = mig.all.p999_ns as f64 / n2.all.p999_ns.max(1) as f64;
    println!();
    sink.bound(
        "migrate_p999_inflation_x",
        inflation,
        Bound::Max(MAX_MIGRATE_P999_INFLATION),
    );
    sink.write();
}
