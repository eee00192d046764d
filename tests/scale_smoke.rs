//! Scale smoke: one 100K-record YCSB-A sweep end-to-end, with the
//! wall-clock budget asserted in the test itself.
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

/// Wall-clock ceiling for the sweep. The fiber executor finishes the run
/// in single-digit seconds on a release build; ~1M events at even 100×
/// below the gated floor still fit.
const BUDGET_SECS: u64 = 300;

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

    assert_eq!(r.total_ops, 64_000, "sweep must run every measured op");
    let events = r
        .counters
        .iter()
        .find(|(n, _)| n == "sim.events_dispatched")
        .map(|(_, v)| *v)
        .expect("run reports sim.events_dispatched");
    // Preload alone is 100K PUTs; a run that "finished" with fewer events
    // than that silently skipped the scale this lane exists to exercise.
    assert!(events > 1_000_000, "implausibly few events: {events}");
    assert!(
        wall.as_secs() < BUDGET_SECS,
        "100K-record sweep blew its wall budget: {wall:?} (limit {BUDGET_SECS}s, \
         {events} events dispatched) — executor wedged or quadratic"
    );
}
