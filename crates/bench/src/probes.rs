//! The ten gated probes: nine on eFactory, and `baselines` on the
//! comparison systems. Each declares its runs at full scale, whether it
//! traces, and its acceptance bounds; [`Probe::run`] executes them, and
//! `bench gate` compares the committed `BENCH_<name>.json` reports against
//! fresh ones. `tests/bench_gate.rs` checks the committed reports against
//! these declarations without running anything.

use efactory_harness::{Bound, Cleaning, ExperimentSpec, RunResult, SystemKind};
use efactory_sim::{micros, millis, ExecModel};
use efactory_ycsb::Mix;

use crate::probe::{Check, Probe, Run};
use crate::{mix_tag, size_label};

/// Every gated probe, in `bench all` order.
pub fn gated() -> Vec<Probe> {
    vec![
        put_get(),
        repl(),
        pipeline(),
        breakdown(),
        txn(),
        cluster(),
        cleaning(),
        shard_scaling(),
        sim(),
        baselines(),
    ]
}

/// Doorbell batch length of the probes that exercise batched recv rings.
const DOORBELL: usize = 16;

/// eFactory at the paper's defaults: 8 clients × 2,000 ops, 4,096
/// records, seed 42.
fn ef(mix: Mix, value_len: usize) -> ExperimentSpec {
    ExperimentSpec::paper(SystemKind::EFactory, mix, value_len)
}

fn run(label: impl Into<String>, spec: ExperimentSpec) -> Run {
    Run {
        label: label.into(),
        spec,
    }
}

fn probe(name: &'static str, runs: Vec<Run>, bounds: Vec<Check>) -> Probe {
    Probe {
        name,
        traced: false,
        runs,
        bounds,
    }
}

/// **put_get** — the perf-trajectory probe: a small, fixed put/get
/// workload matrix on eFactory, so CI can archive one file per commit and
/// diff throughput/latency across history.
fn put_get() -> Probe {
    let mut runs = Vec::new();
    for mix in [Mix::C, Mix::A, Mix::UpdateOnly] {
        for size in [256, 4096] {
            runs.push(run(
                format!("{}/{}", mix_tag(mix), size_label(size)),
                ef(mix, size),
            ));
        }
    }
    probe("put_get", runs, vec![])
}

/// **repl** — eFactory with and without a backup replica.
///
/// Mirroring rides behind the background verifier — one doorbell-batched
/// `rdma_write_imm` per verified run — so it must stay **off the client
/// critical path**: a PUT still completes at RDMA-write ack, and the only
/// client-visible costs are second-order (extra fabric traffic, the
/// verifier spending cycles shipping runs). This probe measures that
/// overhead on the paper's Update-only and YCSB-A mixes at 256 B values,
/// plus one failover run (the primary's data node power-failed
/// mid-window, the backup promoted through a committed `NodeDown`,
/// clients riding through on the new placement) so the trajectory records
/// the cost of the fault path too.
fn repl() -> Probe {
    let spec = |mix, replicas| ExperimentSpec {
        doorbell_batch: DOORBELL,
        replicas,
        ..ef(mix, 256)
    };
    let mut runs = Vec::new();
    for mix in [Mix::UpdateOnly, Mix::A] {
        for r in [0, 1] {
            runs.push(run(
                format!("{}/256B/replicas{r}", mix_tag(mix)),
                spec(mix, r),
            ));
        }
    }
    // Failover run: the primary's data node dies mid-window; the metadata
    // service promotes the backup, and clients finish the workload there.
    let failover = ExperimentSpec {
        fault_at: Some(micros(200)),
        ..spec(Mix::UpdateOnly, 1)
    };
    runs.push(run("Update-only/256B/failover", failover));
    probe("repl", runs, vec![])
}

/// **pipeline** — single-client throughput vs the in-flight window, plus
/// the location cache's effect on repeat GETs.
///
/// The paper's client-active scheme deliberately keeps the server CPU off
/// the PUT critical path, so a serial client is latency-bound: one
/// allocation RPC + one RDMA write per PUT, ~6.5 µs each, caps a single
/// client near 0.15 Mops no matter how fast the fabric is. The pipelined
/// client (`efactory::PipelinedClient`) keeps `window` operations in
/// flight on independent QPs — the same lever Kashyap et al. pull for
/// persistence batching — and this probe records the scaling curve, with
/// the acceptance bound that window=16 stays ≥ 2× window=1.
///
/// The `loc_cache` runs measure the client-side location cache on a
/// read-only mix: repeat GETs skip the bucket-probe RDMA read (one object
/// read instead of probe + object), cutting pure-path read latency. The
/// last run is the everything-on data point: pipelined window + location
/// cache on the paper's mixed workload.
fn pipeline() -> Probe {
    let spec = |mix, clients, window, loc_cache| ExperimentSpec {
        clients,
        ops_per_client: 8_000,
        doorbell_batch: DOORBELL,
        window,
        loc_cache,
        ..ef(mix, 256)
    };
    let mut runs = Vec::new();
    for w in [1, 4, 16] {
        runs.push(run(
            format!("Update-only/256B/window{w}"),
            spec(Mix::UpdateOnly, 1, w, false),
        ));
    }
    for c in [false, true] {
        runs.push(run(
            format!("YCSB-C/256B/loc_cache{}", u8::from(c)),
            spec(Mix::C, 8, 1, c),
        ));
    }
    runs.push(run(
        "YCSB-A/256B/window16+loc_cache",
        spec(Mix::A, 1, 16, true),
    ));
    let speedup = Check {
        name: "pipeline_window16_speedup",
        limit: Bound::Min(2.0),
        value: |r| {
            let window = |w| r.get(&format!("Update-only/256B/window{w}")).mops;
            window(16) / window(1)
        },
    };
    probe("pipeline", runs, vec![speedup])
}

/// **breakdown** — per-op latency decomposition: where does an operation's
/// time go, and which subsystem owns the tail?
///
/// Runs the paper's two write-heavy mixes (Update-only and YCSB-A) at 256B
/// with tracing on, folds every attributed op's trace records into a
/// critical-path breakdown (`efactory_obs::critical_path`), and prints the
/// percentile attribution: for the p50/p99/p99.9 cohorts, each subsystem's
/// share of end-to-end latency. The conservation invariant (per-op phase
/// sums ≡ measured latency, exactly) is checked on every run — a non-zero
/// `conservation_max_err_ns` is a bug in the instrumentation, not noise.
/// `--trace <path>` exports the YCSB-A run as Chrome `trace_event` JSON
/// with the tail exemplars on an overlay lane (open in Perfetto; the worst
/// ops sit on tid 8).
fn breakdown() -> Probe {
    let runs = vec![
        run("Update-only/256B", ef(Mix::UpdateOnly, 256)),
        run("YCSB-A 50%GET/256B", ef(Mix::A, 256)),
    ];
    Probe {
        traced: true,
        ..probe("breakdown", runs, vec![])
    }
}

/// **txn** — multi-key atomic commit cost vs singleton PUTs,
/// snapshot-reader interference with the write path, and the cross-shard
/// commit path. Four bounds:
///
/// * **Commit overhead** — per-key throughput of 4-key atomic batches
///   (`Mix::TxnOnly`; one latency sample per written key) must stay
///   within 25% of singleton Update-only PUTs. The client-active commit
///   fuses a single-shard write set into one exchange and amortizes the
///   allocation round trip across the batch, so the per-key cost should
///   track — not trail — the singleton path.
/// * **Snapshot non-blocking** — MVCC snapshot readers capture a
///   per-shard durable-version vector and read under it without taking
///   any lock a writer could block on. Writer throughput with two
///   background snapshot readers must stay within 5% of the reader-free
///   run.
/// * **Shard scaling** — the same 4-key batches over 4 shards, where most
///   write sets span several shards and commit by two-phase commit, must
///   keep at least the 1-shard throughput. Each 2PC round (prepare,
///   decide) and each snapshot capture posts to every participant before
///   waiting on any, so a commit costs two round trips however many
///   shards it touches; one round trip per participant would fall below
///   the bound.
/// * **Contended tail** — on those 4-shard batches, p99.9 may reach at
///   most 10× p50. A prepare that meets another transaction's in-doubt
///   version waits at the participant if it is the older (wait-die), and
///   only the younger aborts and retries; answering every such prepare
///   `Conflict`, so that both back off and retry whole, put the tail at
///   about 50× p50.
///
/// The YCSB-T runs (50% 4-key txns / 35% GET / 15% snapshot read) on 1
/// and 4 shards are the mixed data points of the trajectory, with no
/// bound of their own.
fn txn() -> Probe {
    let spec = |mix, snap_readers, shards| ExperimentSpec {
        ops_per_client: 8_000,
        snap_readers,
        shards,
        ..ef(mix, 256)
    };
    let runs = vec![
        run(UPDATE_ONLY, spec(Mix::UpdateOnly, 0, 1)),
        run(TXN_ONLY, spec(Mix::TxnOnly, 0, 1)),
        run(
            "Update-only/256B/snap_readers2",
            spec(Mix::UpdateOnly, 2, 1),
        ),
        run("YCSB-T/256B", spec(Mix::T, 0, 1)),
        run(TXN_SHARDS4, spec(Mix::TxnOnly, 0, 4)),
        run("YCSB-T/256B/shards4", spec(Mix::T, 0, 4)),
    ];
    let overhead = Check {
        name: "txn_overhead_pct",
        limit: Bound::Max(25.0),
        value: |r| loss_pct(r.get(UPDATE_ONLY).mops, r.get(TXN_ONLY).mops),
    };
    let interference = Check {
        name: "snap_interference_pct",
        limit: Bound::Max(5.0),
        value: |r| {
            let with_readers = r.get("Update-only/256B/snap_readers2");
            loss_pct(put_mops(r.get(UPDATE_ONLY)), put_mops(with_readers))
        },
    };
    let scaling = Check {
        name: "txn_shard_scaling_x",
        limit: Bound::Min(1.0),
        value: |r| r.get(TXN_SHARDS4).mops / r.get(TXN_ONLY).mops,
    };
    let tail = Check {
        name: "txn_contended_tail_x",
        limit: Bound::Max(10.0),
        value: |r| {
            let all = &r.get(TXN_SHARDS4).all;
            inflation(all.p50_ns, all.p999_ns)
        },
    };
    probe("txn", runs, vec![overhead, interference, scaling, tail])
}

/// The 4-shard 4-key-batch run the shard-scaling and tail bounds read.
const TXN_SHARDS4: &str = "Txn-only/256B/shards4";

/// The 1-shard 4-key-batch run the overhead and shard-scaling bounds read.
const TXN_ONLY: &str = "Txn-only/256B";

/// The reader-free singleton-PUT run both `txn` bounds compare against.
const UPDATE_ONLY: &str = "Update-only/256B/snap_readers0";

/// Writer-only throughput (Mops): PUT samples over the measurement
/// window. Excludes whatever the background snapshot readers measured, so
/// the interference comparison isolates the write path.
fn put_mops(r: &RunResult) -> f64 {
    r.put.count as f64 / (r.elapsed_ns as f64 / 1e9) / 1e6
}

/// How much of `base` a run lost, in percent.
fn loss_pct(base: f64, value: f64) -> f64 {
    (base - value) / base * 100.0
}

/// A tail latency over a baseline's, guarding a zero baseline.
fn inflation(base_ns: u64, value_ns: u64) -> f64 {
    value_ns as f64 / base_ns.max(1) as f64
}

/// **cluster** — multi-node placement cost and the client-visible price
/// of a live shard migration, on YCSB-A over 4 shards:
///
/// * **Placement cost** — a 2-node and a 4-node cluster (round-robin
///   placement, 3-replica metadata service). Routing goes through the
///   epoch-tagged placement map.
/// * **Migration window** — the same 2-node run with shard 0
///   live-migrated 2 ms into the measurement window, while the eight
///   clients keep operating and retarget on WrongEpoch: the
///   copy/fixup/verify passes run off the client critical path.
/// * **Migration tail bound** — client p99.9 during the migrated run may
///   inflate to at most 5× the quiescent run's p99.9. The seal→flip
///   window is the only stretch where client ops stall, so the tail is
///   where a migration that blocks too long shows up first.
fn cluster() -> Probe {
    let spec = |nodes, migrate_at| ExperimentSpec {
        ops_per_client: 4_000,
        nodes,
        shards: 4,
        migrate_at,
        ..ef(Mix::A, 256)
    };
    let runs = vec![
        run("Cluster/256B/nodes2", spec(2, None)),
        run("Cluster/256B/nodes4", spec(4, None)),
        run("Cluster/256B/nodes2/migrate", spec(2, Some(millis(2)))),
    ];
    let inflation = Check {
        name: "migrate_p999_inflation_x",
        limit: Bound::Max(5.0),
        value: |r| {
            let (quiet, migrated) = (
                r.get("Cluster/256B/nodes2"),
                r.get("Cluster/256B/nodes2/migrate"),
            );
            inflation(quiet.all.p999_ns, migrated.all.p999_ns)
        },
    };
    probe("cluster", runs, vec![inflation])
}

/// **cleaning** — the log-cleaning cost: an update-heavy workload whose
/// live set fills most of a dual pool, so the cleaner runs passes back to
/// back *through* the measured window. Three runs:
///
/// * `noclean` — single pool sized for the whole workload (no cleaner):
///   the interference-free baseline.
/// * `clean` — dual 2 MiB pools at a 0.75 threshold: steady-state cleaning
///   pressure; every put races the relocator and rides out `Busy`
///   backpressure (the retry latency is part of the measurement).
/// * `forced` — same layout with a pass additionally fired at the exact
///   start of the measured window, pinning a cleaning instant mid-run.
///
/// The bound is the `clean` put p99.9 over the `noclean` one. Cleaning is
/// not invisible — a put that arrives mid-pass stands behind `Busy`
/// backpressure until the pass (or its abort) lets go, a few hundred ×
/// on this workload. The bound of 600× asserts the stall is *bounded*:
/// one pass, not a pile-up or a wedge.
fn cleaning() -> Probe {
    let pools = Cleaning::Enabled {
        threshold: 0.75,
        pool_len: 2 << 20,
    };
    let runs = [
        ("noclean", Cleaning::Disabled, false),
        ("clean", pools, false),
        ("forced", pools, true),
    ]
    .map(|(tag, cleaning, force_clean)| {
        let spec = ExperimentSpec {
            cleaning,
            force_clean,
            ..ef(Mix::UpdateOnly, 256)
        };
        run(format!("Update-only/256B/{tag}"), spec)
    });
    let inflation = Check {
        name: "cleaning_p999_inflation_x",
        limit: Bound::Max(600.0),
        value: |r| {
            let (quiet, clean) = (
                r.get("Update-only/256B/noclean"),
                r.get("Update-only/256B/clean"),
            );
            inflation(quiet.put.p999_ns, clean.put.p999_ns)
        },
    };
    probe("cleaning", runs.into(), vec![inflation])
}

/// **shard_scaling** — eFactory throughput at 1/2/4/8 shards.
///
/// The single-server store serializes every PUT allocation through one
/// request-handler process, so update-heavy throughput saturates at one
/// service loop. Sharding partitions the key space across independent
/// servers (own node, pools, verifier, cleaner); this probe captures the
/// resulting throughput trajectory on the paper's Update-only and YCSB-A
/// mixes at 256 B values, with doorbell-batched recv rings. 32
/// closed-loop clients: enough offered load to expose the 8-shard
/// capacity (8 clients saturate a single server already).
fn shard_scaling() -> Probe {
    let mut runs = Vec::new();
    for mix in [Mix::UpdateOnly, Mix::A] {
        for shards in [1, 2, 4, 8] {
            let spec = ExperimentSpec {
                clients: 32,
                ops_per_client: 1_000,
                shards,
                doorbell_batch: DOORBELL,
                ..ef(mix, 256)
            };
            runs.push(run(format!("{}/256B/{shards}shards", mix_tag(mix)), spec));
        }
    }
    probe("shard_scaling", runs, vec![])
}

/// **sim** — sim-kernel throughput: events per wall-clock second across
/// the scale sweep {4K, 100K, 1M} records × {32, 1K} clients, plus the
/// thread-executor baseline at the 1M-record point.
///
/// This is the one probe whose headline metric is *wall-clock*, not
/// virtual time: it measures how much simulated work the kernel chews
/// through per host second, which bounds every CI lane in the repo. Every
/// run splits 64,000 measured ops over its clients. The store is loaded
/// straight into its image before it starts (`Store::load`), which
/// dispatches no event, so the kernel's work is the measured window's.
/// Each run's `wall` object, which the bench gate skips, holds the run's
/// whole wall time and its split at the window's edges: host ns and
/// kernel events before the window opened (`load_ns`, `load_events`) and
/// inside it (`window_ns`, `window_events`, `window_events_per_sec`).
/// Event counts are deterministic, identical across executors and hosts.
/// At 1M records the load still takes most of a row's wall time, in host
/// work only (first touches of the hash table and the pool). Runs use the
/// fiber executor except the one labelled `/thread`, which runs the
/// 1M-record, 32-client window one Condvar round-trip per event (1K OS
/// threads would be a spawn-cost benchmark, not an event-throughput one).
/// Both bounds read the measured window:
///
/// * **Throughput** — events per wall-second inside the window at the
///   1M-record point must clear 250K: deliberately conservative — about
///   4× below the measured rate, yet above anything the thread executor
///   reaches — because its job is to fail a wedged or
///   accidentally-quadratic kernel fast on any CI host, not to track the
///   trajectory.
/// * **Fiber speedup** — the fiber executor must hold ≥ 10× the thread
///   executor's events per wall-second inside the window, measured
///   back-to-back on the same host at the 1M-record point (a same-host
///   ratio, so CI hardware variance cancels out). A Condvar handoff costs
///   microseconds where a fiber switch costs tens of nanoseconds; an
///   executor change that erodes the gap below this has re-serialized the
///   hot path.
fn sim() -> Probe {
    // The executor is pinned per row, so the fiber rows and the thread row
    // compare the two backends on the same host.
    let spec = |record_count, clients, exec| ExperimentSpec {
        record_count,
        clients,
        ops_per_client: 64_000 / clients,
        exec: Some(exec),
        ..ef(Mix::A, 64)
    };
    let mut runs = Vec::new();
    for (records, tag) in [(4_096, "4K"), (100_000, "100K"), (1_000_000, "1M")] {
        for (clients, ctag) in [(32, "32"), (1_000, "1K")] {
            runs.push(run(
                format!("Sim/{tag}/{ctag}"),
                spec(records, clients, ExecModel::Fiber),
            ));
        }
    }
    runs.push(run(
        "Sim/1M/32/thread",
        spec(1_000_000, 32, ExecModel::Thread),
    ));
    let throughput = Check {
        name: "sim_eps_1m_c32",
        limit: Bound::Min(250_000.0),
        value: |r| r.window_events_per_sec("Sim/1M/32"),
    };
    let speedup = Check {
        name: "sim_fiber_speedup_1m",
        limit: Bound::Min(10.0),
        value: |r| {
            let eps = |label| r.window_events_per_sec(label);
            eps("Sim/1M/32") / eps("Sim/1M/32/thread")
        },
    };
    probe("sim", runs, vec![throughput, speedup])
}

/// **baselines** — the comparison systems at the paper's defaults: every
/// system but eFactory itself (eFactory w/o hr, SAW, IMM, Erda, Forca, CA
/// w/o persistence, RPC) on YCSB-A at 256 B and 4 KB. No bounds: the point
/// is the exact gate, which pins each system's throughput, latency and
/// counters, so a refactor of the baselines or the harness that moves any
/// of their numbers fails `bench gate`.
fn baselines() -> Probe {
    let mut runs = Vec::new();
    for system in [
        SystemKind::EFactoryNoHr,
        SystemKind::Saw,
        SystemKind::Imm,
        SystemKind::Erda,
        SystemKind::Forca,
        SystemKind::CaNoper,
        SystemKind::Rpc,
    ] {
        for size in [256, 4096] {
            let label = format!(
                "{}/{}/{}",
                system.label(),
                mix_tag(Mix::A),
                size_label(size)
            );
            runs.push(run(label, ExperimentSpec::paper(system, Mix::A, size)));
        }
    }
    probe("baselines", runs, vec![])
}
