//! Transactional throughput probe: multi-key atomic commit cost vs
//! singleton PUTs, and snapshot-reader interference with the write path.
//!
//! The report carries two acceptance bounds of the transaction layer,
//! which the CI bench gate checks:
//!
//! * **Commit overhead** — per-key throughput of 4-key atomic batches
//!   (`Mix::TxnOnly`; one latency sample per written key) must stay
//!   within 25% of singleton Update-only PUTs. The client-active commit
//!   fuses a single-shard write set into one exchange and amortizes the
//!   allocation round trip across the batch, so the per-key cost should
//!   track — not trail — the singleton path.
//! * **Snapshot non-blocking** — MVCC snapshot readers capture a
//!   per-shard durable-version vector and read under it without taking
//!   any lock a writer could block on. Writer throughput with background
//!   snapshot readers must stay within 5% of the reader-free run.
//!
//! The YCSB-T lane (50% 4-key txns / 35% GET / 15% snapshot read) is the
//! mixed data point of the trajectory, with no bound of its own.
//!
//! Always writes `BENCH_txn.json` (override with `--json`).

use efactory_bench::{scaled_ops, ReportSink};
use efactory_harness::{cluster, Bound, ExperimentSpec, RunResult, SystemKind};
use efactory_ycsb::Mix;

/// Per-key Txn-only throughput may trail singleton Update-only PUTs by at
/// most this much (Txn-only records one sample per key, so both Mops
/// figures are per key).
const MAX_COMMIT_OVERHEAD_PCT: f64 = 25.0;
/// Writer-only throughput with two snapshot readers may trail the
/// reader-free run by at most this much.
const MAX_SNAP_INTERFERENCE_PCT: f64 = 5.0;

fn spec(mix: Mix, snap_readers: usize) -> ExperimentSpec {
    let mut s = ExperimentSpec::paper(SystemKind::EFactory, mix, 256);
    s.ops_per_client = scaled_ops(8_000);
    s.snap_readers = snap_readers;
    s
}

/// Writer-only throughput (Mops): PUT samples over the measurement
/// window. Excludes whatever the background snapshot readers measured, so
/// the interference comparison isolates the write path.
fn put_mops(r: &RunResult) -> f64 {
    r.put.count as f64 / (r.elapsed_ns as f64 / 1e9) / 1e6
}

fn main() {
    let mut sink = ReportSink::with_default_path("txn-bench", Some("BENCH_txn.json"));
    println!("eFactory transactions · 256B values · 8 clients");
    println!(
        "{:<34} {:>9} {:>10} {:>10}",
        "workload", "Mops", "p50 µs", "p99 µs"
    );
    let mut row = |label: &str, s: &ExperimentSpec| -> RunResult {
        let r = cluster::run(s);
        println!(
            "{label:<34} {:>9.3} {:>10.2} {:>10.2}",
            r.mops,
            r.all.p50_ns as f64 / 1000.0,
            r.all.p99_ns as f64 / 1000.0,
        );
        sink.add(label, s, &r);
        r
    };

    let upd = row("Update-only/256B/snap_readers0", &spec(Mix::UpdateOnly, 0));
    let txn = row("Txn-only/256B", &spec(Mix::TxnOnly, 0));
    let with_readers = row("Update-only/256B/snap_readers2", &spec(Mix::UpdateOnly, 2));
    row("YCSB-T/256B", &spec(Mix::T, 0));

    let overhead_pct = (upd.mops - txn.mops) / upd.mops * 100.0;
    let interference_pct = (put_mops(&upd) - put_mops(&with_readers)) / put_mops(&upd) * 100.0;
    println!();
    sink.bound(
        "txn_overhead_pct",
        overhead_pct,
        Bound::Max(MAX_COMMIT_OVERHEAD_PCT),
    );
    sink.bound(
        "snap_interference_pct",
        interference_pct,
        Bound::Max(MAX_SNAP_INTERFERENCE_PCT),
    );
    sink.write();
}
