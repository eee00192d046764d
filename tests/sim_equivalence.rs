//! Executor-equivalence suite: the fiber executor and the original
//! thread-per-process executor must be observationally identical.
//!
//! The sim kernel's determinism contract ("same seed → same event order →
//! byte-identical replay") is what every crash-replay, chaos, and
//! linearizability test in this repo leans on, so the executor swap is
//! pinned from two directions:
//!
//! * **Semantics pins** — same-timestamp events run in `seq` (schedule)
//!   order, park-ticket stale wakes are discarded not mis-delivered, and
//!   driver-thread `Call`s interleave with process wakes by `seq`. Each
//!   is asserted against an explicit expected order, on *both* backends —
//!   so a regression fails even if it breaks both executors identically.
//! * **End-to-end equivalence** — a representative replicated + chaos +
//!   scrub workload renders a byte-identical run report (params,
//!   counters, latency summaries, critical-path breakdown) and a
//!   byte-identical trace on both executors.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use efactory_harness::{cluster, Cleaning, ExperimentSpec, Report, SystemKind};
use efactory_obs::Obs;
use efactory_rnic::{CostModel, FaultPlan};
use efactory_sim::{self as sim, ExecModel, RunOutcome, Sim};
use efactory_ycsb::Mix;

const BOTH: [ExecModel; 2] = [ExecModel::Fiber, ExecModel::Thread];

/// Run `build` under one executor and return the order log it produced.
fn order_log(exec: ExecModel, build: impl Fn(&Sim, Arc<Mutex<Vec<String>>>)) -> Vec<String> {
    let mut s = Sim::with_exec(7, exec);
    let log = Arc::new(Mutex::new(Vec::new()));
    build(&s, Arc::clone(&log));
    assert!(
        matches!(s.run(), RunOutcome::Completed { .. }),
        "{exec:?} run must complete"
    );
    drop(s);
    Arc::try_unwrap(log).unwrap().into_inner().unwrap()
}

#[test]
fn same_timestamp_events_run_in_seq_order() {
    // Three processes all wake at t=100; a driver call was scheduled at
    // t=100 *before* the processes were spawned. Ties break by schedule
    // sequence number, so the call runs first, then the processes in
    // spawn order — independent of executor, host scheduler, or stack
    // layout.
    let expected: Vec<String> = ["call@100", "a@100", "b@100", "c@100"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    for exec in BOTH {
        let got = order_log(exec, |s, log| {
            let l = Arc::clone(&log);
            s.call_at(100, move || l.lock().unwrap().push("call@100".into()));
            for name in ["a", "b", "c"] {
                let l = Arc::clone(&log);
                s.spawn(name, move || {
                    sim::sleep_until(100);
                    l.lock().unwrap().push(format!("{name}@{}", sim::now()));
                });
            }
        });
        assert_eq!(got, expected, "{exec:?}: same-tick tie-break drifted");
    }
}

#[test]
fn driver_calls_interleave_with_wakes_by_seq() {
    // Calls and sleeps scheduled from inside a process at mixed
    // timestamps: execution order is (time, seq), nothing else. The
    // process schedules call@20, sleeps to 10 (logging on wake), then
    // sleeps to 20 — so at t=20 the earlier-scheduled call precedes the
    // process's own wake.
    let expected: Vec<String> = ["p@10", "call@20", "p@20"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    for exec in BOTH {
        let got = order_log(exec, |s, log| {
            let l = Arc::clone(&log);
            s.spawn("p", move || {
                let lc = Arc::clone(&l);
                sim::call_at(20, move || lc.lock().unwrap().push("call@20".into()));
                sim::sleep_until(10);
                l.lock().unwrap().push(format!("p@{}", sim::now()));
                sim::sleep_until(20);
                l.lock().unwrap().push(format!("p@{}", sim::now()));
            });
        });
        assert_eq!(got, expected, "{exec:?}: call/wake interleaving drifted");
    }
}

#[test]
fn stale_park_ticket_wakes_are_discarded_identically() {
    // A receiver parks with a deadline; the message arrives first. The
    // abandoned deadline wake then fires against a park ticket that was
    // already consumed and must be discarded — visibly, via
    // `wakes_stale` — not delivered to the receiver's *next* park (which
    // would wake it early from an unrelated block). Both backends must
    // agree on every observable AND on every backend-invariant counter.
    let mut counters = Vec::new();
    for exec in BOTH {
        let mut s = Sim::with_exec(3, exec);
        let (tx, rx) = s.channel::<u32>();
        let got = Arc::new(Mutex::new(Vec::new()));
        let got2 = Arc::clone(&got);
        s.spawn("sender", move || {
            for i in 0..4 {
                // Arrivals at t = 10, 20, 30, 40 — each well before the
                // receiver's pending 1000-tick deadline.
                tx.send(i, 10 * (i as u64 + 1)).unwrap();
            }
        });
        s.spawn("receiver", move || {
            for i in 0..4 {
                got2.lock().unwrap().push(rx.recv_timeout(1_000).unwrap());
                assert_eq!(sim::now(), 10 * (i + 1), "delivery time drifted");
                // Park once more between messages so a mis-delivered
                // stale deadline wake would surface as an early return.
                sim::sleep(1);
            }
        });
        assert!(matches!(s.run(), RunOutcome::Completed { .. }));
        assert_eq!(*got.lock().unwrap(), vec![0, 1, 2, 3], "{exec:?}");
        let c = s.counters();
        assert!(c.wakes_stale > 0, "{exec:?}: expected stale wakes, got 0");
        counters.push(c.backend_invariant());
    }
    assert_eq!(
        counters[0], counters[1],
        "fiber and thread runs dispatched different event sequences"
    );
}

/// The representative end-to-end workload: primary–backup replication,
/// background CRC scrub, and a lossy/duplicating/delaying fabric.
fn chaos_spec(exec: ExecModel) -> ExperimentSpec {
    ExperimentSpec {
        system: SystemKind::EFactory,
        mix: Mix::A,
        value_len: 128,
        key_len: 16,
        clients: 2,
        ops_per_client: 60,
        record_count: 64,
        seed: 11,
        cleaning: Cleaning::Disabled,
        force_clean: false,
        shards: 1,
        doorbell_batch: 0,
        replicas: 1,
        fault_at: None,
        fault_plan: Some(FaultPlan {
            drop_p: 0.03,
            dup_p: 0.02,
            delay_p: 0.03,
            delay_ns: 1_500,
            seed: 9,
        }),
        scrub: true,
        window: 1,
        loc_cache: false,
        snap_readers: 0,
        nodes: 1,
        migrate_at: None,
        exec: Some(exec),
    }
}

#[test]
fn replicated_chaos_report_is_byte_identical_across_executors() {
    let render = |exec| {
        let s = chaos_spec(exec);
        let obs = Obs::new();
        let r = cluster::run_observed(&s, CostModel::default(), &obs);
        let mut rep = Report::new("sim-equivalence");
        rep.add("repl-chaos-scrub", &s, &r);
        (rep.to_json(), format!("{:?}", obs.tracer.records()))
    };
    let (fiber_json, fiber_trace) = render(ExecModel::Fiber);
    let (thread_json, thread_trace) = render(ExecModel::Thread);
    // The report embeds params, counters (sim.* included), latency
    // summaries, and the trace-folded breakdown — byte equality here is
    // the whole determinism contract in one assert.
    assert_eq!(
        fiber_json, thread_json,
        "executors rendered different run reports"
    );
    assert_eq!(
        fiber_trace, thread_trace,
        "executors recorded different traces"
    );
    // And the report actually carries the chaos + sim telemetry it is
    // supposed to pin (guards against the equality above passing on an
    // accidentally-empty report).
    assert!(fiber_json.contains("\"fault_drop_p\":0.030000"));
    assert!(fiber_json.contains("\"sim.events_dispatched\":"));
    assert!(fiber_json.contains("\"breakdown\":{\"ops\":"));
}

#[test]
fn run_to_run_determinism_within_each_executor() {
    // Same seed, same backend, twice → byte-identical report. (The
    // cross-backend test above could in principle pass with both
    // executors being identically nondeterministic; this closes that
    // hole.)
    for exec in BOTH {
        let render = || {
            let s = chaos_spec(exec);
            let r = cluster::run(&s);
            let mut rep = Report::new("sim-equivalence");
            rep.add("repl-chaos-scrub", &s, &r);
            rep.to_json()
        };
        assert_eq!(render(), render(), "{exec:?}: replay drifted");
    }
}

#[test]
fn work_between_ticks_does_not_reorder_events() {
    // A process doing heavy driver-visible work (many zero-delay
    // channel round-trips) must not starve or reorder a same-tick
    // timer in another process: the batch dispatcher may only run
    // events whose (time, seq) is already due.
    for exec in BOTH {
        let mut s = Sim::with_exec(5, exec);
        let (tx, rx) = s.channel::<u64>();
        let ticks = Arc::new(AtomicU64::new(0));
        let t2 = Arc::clone(&ticks);
        s.spawn("spinner", move || {
            for i in 0..1_000 {
                tx.send(i, 0).unwrap();
                assert_eq!(rx.recv().unwrap(), i);
            }
        });
        s.spawn("timer", move || {
            for _ in 0..10 {
                sim::sleep(1);
                t2.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(matches!(s.run(), RunOutcome::Completed { .. }));
        assert_eq!(ticks.load(Ordering::Relaxed), 10, "{exec:?}");
    }
}
