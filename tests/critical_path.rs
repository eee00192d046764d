//! Conservation-of-time and tail-attribution guarantees of the per-op
//! critical-path fold (`efactory_obs::critical_path`).
//!
//! The breakdown's core contract is *exact conservation*: for every
//! attributed operation, the sum of its phase segments — service, queueing,
//! and retry, across all eight subsystem lanes — equals the measured
//! submit→completion latency to the nanosecond. The fold constructs the
//! decomposition by interval sweep over the op's own window, so any error
//! is an instrumentation bug (a span leaking outside its op, a verb probe
//! firing on the wrong thread), never rounding noise. These tests pin the
//! invariant across the configuration surface: shard counts, pipelined
//! windows, replication, a lossy-fabric chaos plan, and the transactional
//! mixes on every store shape.

use efactory_harness::cluster::TXN_KEYS;
use efactory_harness::{cluster, Cleaning, ExperimentSpec, SystemKind};
use efactory_obs::critical_path::PhaseKind;
use efactory_obs::{Breakdown, Obs};
use efactory_rnic::{CostModel, FaultPlan};
use efactory_ycsb::{Mix, Op, OpStream, WorkloadConfig};

fn base(mix: Mix, seed: u64) -> ExperimentSpec {
    ExperimentSpec {
        system: SystemKind::EFactory,
        mix,
        value_len: 128,
        key_len: 16,
        clients: 2,
        ops_per_client: 50,
        record_count: 64,
        seed,
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

/// Run `spec` with a roomy trace ring and return the folded breakdown,
/// checking the invariants every configuration must uphold.
fn run_checked(tag: &str, spec: &ExperimentSpec) -> Breakdown {
    let obs = Obs::with_trace_capacity(1 << 18);
    let r = cluster::run_observed(spec, CostModel::default(), &obs);
    assert_eq!(obs.tracer.dropped(), 0, "{tag}: trace ring must not drop");
    let b = r.breakdown.expect("eFactory runs fold a breakdown");
    assert_eq!(
        b.ops, r.total_ops,
        "{tag}: every measured op folds exactly once"
    );
    assert_eq!(
        b.conservation_max_err_ns, 0,
        "{tag}: phases + queueing must equal measured latency exactly"
    );
    // Shares of each percentile cohort sum to 100% up to integer
    // truncation (8 lanes × <0.01% each).
    for p in &b.percentiles {
        let sum: u64 = p.share_hundredths.iter().sum();
        assert!(
            (9_993..=10_000).contains(&sum),
            "{tag}: {} shares sum to {sum}",
            p.label
        );
        let max = *p.share_hundredths.iter().max().unwrap();
        assert_eq!(
            p.share_hundredths[p.dominant.lane() as usize],
            max,
            "{tag}: dominant must hold the largest share"
        );
    }
    b
}

/// The acceptance matrix: {1,4,8} shards × {window 1,16} × {replicas 0,1}
/// × one chaos plan.
#[test]
fn conservation_holds_across_shards_windows_replicas_and_chaos() {
    // Shard sweep.
    for shards in [1usize, 4, 8] {
        let mut s = base(Mix::A, 11);
        s.shards = shards;
        run_checked(&format!("shards{shards}"), &s);
    }
    // Pipelined window.
    let mut s = base(Mix::UpdateOnly, 12);
    s.window = 16;
    s.doorbell_batch = 16;
    let b = run_checked("window16", &s);
    // With 16 in-flight slots per client the submit→completion window
    // includes real queueing, which the fold must surface as Queue time
    // rather than silently fold into service.
    assert!(
        b.phases
            .iter()
            .any(|p| p.kind == PhaseKind::Queue && p.total_ns > 0),
        "pipelined run must attribute queue time"
    );
    // Replication, with and without shards, serial and pipelined.
    for shards in [1usize, 4] {
        for window in [1usize, 16] {
            let mut s = base(Mix::A, 13);
            s.shards = shards;
            s.replicas = 1;
            s.window = window;
            run_checked(&format!("repl-shards{shards}-window{window}"), &s);
        }
    }
    // Chaos: a lossy, duplicating, delaying fabric stretches ops with
    // retransmissions and backoff; the invariant must survive retries.
    let mut s = base(Mix::A, 14);
    s.fault_plan = Some(FaultPlan {
        drop_p: 0.02,
        dup_p: 0.01,
        delay_p: 0.05,
        delay_ns: 2_000,
        seed: 77,
    });
    run_checked("chaos", &s);
}

/// Roots the fold must find for `spec`, from replaying each client's op
/// stream: one per GET, PUT, and transaction, and one per key of a
/// snapshot read (the capture itself is not an op).
fn expected_roots(spec: &ExperimentSpec) -> u64 {
    let wl = WorkloadConfig {
        mix: spec.mix,
        record_count: spec.record_count,
        key_len: spec.key_len,
        value_len: spec.value_len,
        txn_keys: TXN_KEYS,
    };
    let mut roots = 0;
    for cid in 0..spec.clients {
        let mut stream = OpStream::new(wl.clone(), spec.seed, cid as u64);
        for _ in 0..spec.ops_per_client {
            roots += match stream.next_op() {
                Op::SnapRead { keys } => keys.len() as u64,
                Op::Get { .. } | Op::Put { .. } | Op::Txn { .. } => 1,
            };
        }
    }
    roots
}

/// Transactions and snapshot reads fold like any other op on every store
/// shape, replicated ones included: exactly one root per GET, PUT,
/// transaction, and snapshot-key read, each conserving its latency.
#[test]
fn transactions_fold_one_root_per_op_on_every_topology() {
    for mix in [Mix::TxnOnly, Mix::T] {
        for replicas in [0usize, 1] {
            for shards in [1usize, 4] {
                let tag = format!("{mix:?} shards{shards} replicas{replicas}");
                let mut s = base(mix, 41);
                s.shards = shards;
                s.replicas = replicas;
                let obs = Obs::with_trace_capacity(1 << 18);
                let r = cluster::run_observed(&s, CostModel::default(), &obs);
                assert_eq!(obs.tracer.dropped(), 0, "{tag}: trace ring must not drop");
                let b = r.breakdown.unwrap_or_else(|| panic!("{tag}: no op folded"));
                assert_eq!(b.ops, expected_roots(&s), "{tag}: one root per op");
                assert_eq!(b.conservation_max_err_ns, 0, "{tag}: conservation");
            }
        }
    }
}

/// Percentile attribution identifies the dominant tail subsystem for the
/// paper's write mixes, and the tail exemplars carry full, conserving
/// phase timelines ranked worst-first.
#[test]
fn tail_attribution_and_exemplars_for_update_only_and_ycsb_a() {
    for (mix, tag) in [(Mix::UpdateOnly, "update-only"), (Mix::A, "ycsb-a")] {
        let mut s = base(mix, 21);
        s.clients = 4;
        s.ops_per_client = 100;
        let b = run_checked(tag, &s);
        let p999 = b.percentile("p999").expect("p999 row present");
        assert!(p999.cohort >= 1, "{tag}: tail cohort non-empty");
        assert!(
            p999.share_pct(p999.dominant) > 25.0,
            "{tag}: dominant subsystem owns a real share of the tail"
        );
        // Exemplars: present, worst-first, and individually conserving.
        assert!(!b.exemplars.is_empty(), "{tag}: exemplars captured");
        assert!(b.exemplars.len() <= 4, "{tag}: K bounded");
        for w in b.exemplars.windows(2) {
            assert!(
                w[0].summary.latency >= w[1].summary.latency,
                "{tag}: exemplars ranked by latency"
            );
        }
        // The worst op is by definition in every percentile cohort; later
        // exemplars may fall below the p99.9 threshold when the cohort is
        // smaller than K.
        assert!(
            b.exemplars[0].summary.latency >= p999.threshold_ns,
            "{tag}: worst exemplar clears the tail threshold"
        );
        for e in &b.exemplars {
            let sum: u64 = e.segments.iter().map(|seg| seg.dur).sum();
            assert_eq!(
                sum, e.summary.latency,
                "{tag}: exemplar timeline conserves its latency"
            );
        }
    }
}

/// The run report's all-op quantiles are the breakdown's cohort thresholds:
/// both are the nearest-rank samples of the same measured latencies. At
/// 1,000 ops a float rank for p99.9 is one too high, so this also pins the
/// integer rule.
#[test]
fn report_quantiles_equal_breakdown_thresholds() {
    for (mix, tag) in [(Mix::UpdateOnly, "update-only"), (Mix::A, "ycsb-a")] {
        let mut s = base(mix, 21);
        s.clients = 4;
        s.ops_per_client = 250;
        let obs = Obs::with_trace_capacity(1 << 18);
        let r = cluster::run_observed(&s, CostModel::default(), &obs);
        assert_eq!(obs.tracer.dropped(), 0, "{tag}: trace ring must not drop");
        let b = r.breakdown.as_ref().expect("breakdown folded");
        assert_eq!((r.all.count, b.ops), (1_000, 1_000), "{tag}: op counts");
        for (label, reported) in [
            ("p50", r.all.p50_ns),
            ("p99", r.all.p99_ns),
            ("p999", r.all.p999_ns),
        ] {
            let row = b.percentile(label).expect("percentile row present");
            assert_eq!(reported, row.threshold_ns, "{tag}: report {label}");
        }
    }
}

/// Same seed ⇒ identical breakdown JSON: the fold adds no nondeterminism
/// on top of the deterministic trace.
#[test]
fn breakdown_is_deterministic() {
    let go = || {
        let s = base(Mix::A, 31);
        let obs = Obs::with_trace_capacity(1 << 18);
        let r = cluster::run_observed(&s, CostModel::default(), &obs);
        let b = r.breakdown.unwrap();
        (b.to_json(), b.exemplars_json())
    };
    assert_eq!(go(), go(), "same seed must fold byte-identical breakdowns");
}

/// A ring that overflowed kept only its newest records, so a fold would
/// describe an arbitrary subset of the measured ops. The run reports no
/// breakdown instead of a partial one.
#[test]
fn overflowed_trace_ring_reports_no_breakdown() {
    let s = base(Mix::A, 31);
    let obs = Obs::with_trace_capacity(64);
    let r = cluster::run_observed(&s, CostModel::default(), &obs);
    assert!(obs.tracer.dropped() > 0, "a 64-record ring must overflow");
    assert!(r.breakdown.is_none(), "partial trace folded a breakdown");
}
