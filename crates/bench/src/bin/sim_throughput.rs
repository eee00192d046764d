//! Sim-kernel throughput probe: events per wall-clock second across the
//! scale sweep {4K, 100K, 1M} records × {32, 1K} clients, plus the
//! thread-executor baseline at the 1M-record point.
//!
//! This is the one bench whose headline metric is *wall-clock*, not
//! virtual time: it measures how much simulated work the kernel chews
//! through per host second, which bounds every CI lane in the repo. Each
//! row is an ordinary run-report entry (its event count,
//! `sim.events_dispatched`, is deterministic: identical across executors
//! and hosts) plus a `wall` object with `wall_ns` and
//! `events_per_wall_sec`, which the bench gate skips. Rows run on the
//! fiber executor except the one labelled `/thread`. Two acceptance
//! bounds cover the wall-clock side:
//!
//! * **Throughput** — events/wall-second at the 1M-record point must
//!   clear [`MIN_EVENTS_PER_WALL_SEC`]: a wedged or accidentally-quadratic
//!   executor fails fast.
//! * **Fiber speedup** — the fiber executor must hold ≥
//!   [`MIN_FIBER_SPEEDUP`] × the thread executor's events/second, measured
//!   back-to-back on the same host at the 1M-record point (same-host
//!   ratio, so CI hardware variance cancels out).
//!
//! Always writes `BENCH_sim.json` (override with `--json`). The thread
//! baseline preloads 1M records one Condvar round-trip per event, which
//! dominates this bin's runtime.

use std::time::Instant;

use efactory_bench::{scaled_ops, ReportSink};
use efactory_harness::{cluster, Bound, ExperimentSpec, SystemKind};
use efactory_obs::json::Obj;
use efactory_sim::ExecModel;
use efactory_ycsb::Mix;

/// Measured client operations across the whole sweep point, split over
/// however many clients the point runs. Preload (= `records` PUTs)
/// dominates at the 1M point either way.
const TOTAL_OPS: usize = 64_000;
/// Floor on events/wall-second at the 1M-record point. Deliberately
/// conservative — ~5× below the measured reference rate, yet above
/// anything the thread executor reaches — because its job is to fail a
/// wedged kernel fast on any CI host, not to track the trajectory.
const MIN_EVENTS_PER_WALL_SEC: f64 = 250_000.0;
/// Floor on the fiber executor's events/wall-second over the thread
/// executor's at the 1M-record point. A Condvar handoff costs
/// microseconds where a fiber switch costs tens of nanoseconds; an
/// executor change that erodes the gap below this has re-serialized the
/// hot path.
const MIN_FIBER_SPEEDUP: f64 = 10.0;

fn spec(records: u64, clients: usize, exec: ExecModel) -> ExperimentSpec {
    let mut s = ExperimentSpec::paper(SystemKind::EFactory, Mix::A, 64);
    s.record_count = records;
    s.clients = clients;
    s.ops_per_client = scaled_ops(TOTAL_OPS / clients);
    // Pin the executor explicitly: the fiber rows must not silently turn
    // into thread rows under a stray `EF_SIM_EXEC=thread`.
    s.exec = Some(exec);
    s
}

/// Run one sweep point, print its row, record it, and return its
/// events per wall-second.
fn run_point(
    sink: &mut ReportSink,
    label: &str,
    records: u64,
    clients: usize,
    exec: ExecModel,
) -> f64 {
    let s = spec(records, clients, exec);
    let t0 = Instant::now();
    let r = cluster::run(&s);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let events = r
        .counters
        .iter()
        .find(|(n, _)| n == "sim.events_dispatched")
        .map(|(_, v)| *v)
        .expect("run reports sim.events_dispatched");
    let eps = events as f64 / (wall_ns as f64 / 1e9);
    println!(
        "{label:<18} {events:>10} {:>12} {:>10.2} {eps:>12.0}",
        wall_ns / 1_000_000,
        r.elapsed_ns as f64 / 1e6,
    );
    let wall = Obj::new()
        .u64("wall_ns", wall_ns)
        .f64("events_per_wall_sec", eps, 0);
    sink.add_with_wall(label, &s, &r, wall);
    eps
}

fn main() {
    let mut sink = ReportSink::with_default_path("sim-throughput", Some("BENCH_sim.json"));
    println!("sim-kernel scale sweep · YCSB-A · 64B values · eFactory");
    println!(
        "{:<18} {:>10} {:>12} {:>10} {:>12}",
        "point", "events", "wall ms", "virt ms", "events/sec"
    );

    let mut fiber_1m = 0.0;
    for (records, tag) in [(4_096, "4K"), (100_000, "100K"), (1_000_000, "1M")] {
        for (clients, ctag) in [(32, "32"), (1_000, "1K")] {
            let label = format!("Sim/{tag}/{ctag}");
            let eps = run_point(&mut sink, &label, records, clients, ExecModel::Fiber);
            if label == "Sim/1M/32" {
                fiber_1m = eps;
            }
        }
    }
    // Thread-executor baseline at the 1M-record point, 32 clients (1K OS
    // threads is a spawn-cost benchmark, not an event-throughput one).
    let thread_1m = run_point(
        &mut sink,
        "Sim/1M/32/thread",
        1_000_000,
        32,
        ExecModel::Thread,
    );
    println!();
    sink.bound(
        "sim_eps_1m_c32",
        fiber_1m,
        Bound::Min(MIN_EVENTS_PER_WALL_SEC),
    );
    sink.bound(
        "sim_fiber_speedup_1m",
        fiber_1m / thread_1m,
        Bound::Min(MIN_FIBER_SPEEDUP),
    );
    sink.write();
}
