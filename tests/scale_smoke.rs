//! Scale smoke: a 100K-record store driven by 1K clients through 64K
//! YCSB-A ops end-to-end, with the wall-clock budget and a peak-memory
//! ceiling asserted in the test itself.
//!
//! The fiber executor exists so CI can afford runs with 10^5–10^6
//! records; this lane (`EF_TEST_SCALE=1`, release profile in CI) proves
//! the claim stays true. The budget is deliberately loose — an order of
//! magnitude over the expected wall time on a cold CI runner — because
//! its job is to catch an executor that wedged or went quadratic, not to
//! track throughput (the `sim` probe's bench gate does that with
//! committed baselines and hard floors). A wedged run fails here in
//! minutes instead of eating the whole job timeout.

use std::time::Instant;

use efactory_harness::{cluster, Cleaning, ExperimentSpec, SystemKind};
use efactory_ycsb::Mix;

/// Wall-clock ceiling for the sweep. A release build finishes it in about
/// a second on a 2-vCPU VM (0.25 s loading the store, 0.75 s for the
/// window's ~0.57M events); the window's events at even 100× below the
/// gated floor still fit.
const BUDGET_SECS: u64 = 300;

/// Floor on the kernel events the measured window dispatches per op. The
/// sweep dispatches about 8.8 per op; a run that skipped its ops, or a
/// kernel that stopped dispatching them, falls far below.
const MIN_EVENTS_PER_OP: u64 = 4;

/// Peak-RSS (`VmHWM`) ceiling for the sweep's process, in MiB, measured on
/// a 2-vCPU x86-64 VM: 62.8 MiB (release) and 83.5 MiB (debug) with media
/// kept only for dirty lines, against 99.9 MiB and 127.3 MiB when every
/// pool also stored a full media image. Each ceiling sits between its
/// profile's two values, so a returning full-size image fails it. Loading
/// the store instead of PUTting it took the release peak to 58.4 MiB.
const HWM_CEILING_MB: f64 = if cfg!(debug_assertions) { 105.0 } else { 80.0 };

#[test]
fn hundred_k_record_ycsb_a_fits_the_wall_budget() {
    if std::env::var("EF_TEST_SCALE").map(|v| v == "1") != Ok(true) {
        return;
    }
    let spec = ExperimentSpec {
        system: SystemKind::EFactory,
        mix: Mix::A,
        value_len: 64,
        key_len: 32,
        clients: 1_000,
        ops_per_client: 64,
        record_count: 100_000,
        seed: 42,
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
    };
    let t0 = Instant::now();
    let r = cluster::run(&spec);
    let wall = t0.elapsed();
    let hwm = peak_rss_mb();
    let events = r.host.window_events;
    println!(
        "scale smoke: wall {wall:?} (load {:.2}s, window {:.2}s, {events} window events), \
         VmHWM {hwm:.1} MiB",
        r.host.load_ns as f64 / 1e9,
        r.host.window_ns as f64 / 1e9,
    );

    // A run that "finished" without its ops or its window's events
    // silently skipped the scale this lane exists to exercise. (A record
    // the load dropped already fails the run: the harness panics on a
    // measured GET that finds nothing.)
    assert_eq!(r.total_ops, 64_000, "sweep must run every measured op");
    assert!(
        events >= MIN_EVENTS_PER_OP * r.total_ops,
        "implausibly few window events: {events} for {} ops",
        r.total_ops
    );
    assert!(
        hwm < HWM_CEILING_MB,
        "100K-record sweep peaked at {hwm:.1} MiB (ceiling {HWM_CEILING_MB} MiB)"
    );
    assert!(
        wall.as_secs() < BUDGET_SECS,
        "100K-record sweep blew its wall budget: {wall:?} (limit {BUDGET_SECS}s, \
         {events} events dispatched) — executor wedged or quadratic"
    );
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
