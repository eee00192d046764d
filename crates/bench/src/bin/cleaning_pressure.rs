//! **cleaning_pressure** — the log-cleaning cost probe: an update-heavy
//! workload whose live set fills most of a dual pool, so the cleaner runs
//! passes back to back *through* the measured window. Three lanes:
//!
//! * `noclean` — single pool sized for the whole workload (no cleaner):
//!   the interference-free baseline.
//! * `clean` — dual 2 MiB pools at a 0.75 threshold: steady-state cleaning
//!   pressure; every put races the relocator and rides out `Busy`
//!   backpressure (the retry latency is part of the measurement).
//! * `forced` — same layout with a pass additionally fired at the exact
//!   start of the measured window, pinning a cleaning instant mid-run.
//!
//! Emitted as JSON (`BENCH_cleaning.json` by default, `--json <path>` to
//! override), with the `clean` lane's put p99.9 over the `noclean` lane's
//! as an acceptance bound ([`MAX_CLEAN_P999_INFLATION`]). Fully
//! deterministic: fixed seed, virtual-time measurement.

use efactory_bench::{spec, ReportSink};
use efactory_harness::{cluster, Bound, Cleaning, SystemKind, Table};
use efactory_ycsb::Mix;

/// Acceptance bound on cleaner-induced put tail inflation. Cleaning is
/// not invisible — a put that arrives mid-pass stands behind `Busy`
/// backpressure until the pass (or its abort) lets go, a few hundred ×
/// on this workload. The bound asserts the stall is *bounded*: one pass,
/// not a pile-up or a wedge.
const MAX_CLEAN_P999_INFLATION: f64 = 600.0;

fn main() {
    println!("cleaning_pressure: update-heavy churn under log cleaning (8 clients)\n");
    let mut sink = ReportSink::with_default_path("cleaning_pressure", Some("BENCH_cleaning.json"));
    let mut table = Table::new(vec![
        "lane",
        "Mops/s",
        "put p50 (us)",
        "put p99.9 (us)",
        "cleanings",
        "relocated",
        "stalls",
    ]);
    let mut put_p999 = Vec::new();
    for (tag, cleaning, force) in [
        ("noclean", Cleaning::Disabled, false),
        (
            "clean",
            Cleaning::Enabled {
                threshold: 0.75,
                pool_len: 2 << 20,
            },
            false,
        ),
        (
            "forced",
            Cleaning::Enabled {
                threshold: 0.75,
                pool_len: 2 << 20,
            },
            true,
        ),
    ] {
        let mut s = spec(SystemKind::EFactory, Mix::UpdateOnly, 256);
        s.cleaning = cleaning;
        s.force_clean = force;
        let r = cluster::run(&s);
        let counter = |name: &str| {
            r.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        table.row(vec![
            tag.to_string(),
            format!("{:.3}", r.mops),
            format!("{:.2}", r.put.p50_us()),
            format!("{:.2}", r.put.p999_us()),
            format!("{}", r.cleanings),
            format!("{}", counter("server.relocated")),
            format!("{}", counter("server.cleaner.stalls")),
        ]);
        sink.add(&format!("Update-only/256B/{tag}"), &s, &r);
        put_p999.push(r.put.p999_ns);
    }
    table.print();
    println!();
    // Lanes in order: noclean, clean, forced.
    sink.bound(
        "cleaning_p999_inflation_x",
        put_p999[1] as f64 / put_p999[0].max(1) as f64,
        Bound::Max(MAX_CLEAN_P999_INFLATION),
    );
    sink.write();
}
