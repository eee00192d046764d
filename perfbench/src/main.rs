//! Workload runner and layer probes for the benchmark driven by `run.py`.
//!
//! Each invocation does one thing in a fresh process and prints one JSON
//! object on stdout, so the caller gets an exact peak-RSS figure per run
//! and survives a run that panics:
//!
//! ```text
//! perfbench spec  --workload <name> --seed <n> [--tiny]
//! perfbench run   --workload <name> --seed <n> --mode <mode> [--tiny]
//! perfbench probe --workload <name> --seed <n> [--tiny]
//! ```
//!
//! `spec` prints the op counts a workload attempts. `run` modes: `setup`
//! (the spec with `ops_per_client = 0`, i.e. format, preload and drain
//! only), `full` (the whole spec), `traced-setup` (setup under an
//! unbounded trace ring) and `traced` (the spec at its traced op count,
//! once with the default tracer and once under an unbounded ring, so the
//! two wall times give the tracing overhead). Every run goes through
//! `efactory_harness::run` / `run_observed`, the entry points the bench
//! binaries use.

mod probe;
mod workloads;

use std::time::Instant;

use efactory_harness::{cluster, ExperimentSpec, RunResult};
use efactory_obs::json::Obj;
use efactory_obs::Obs;
use efactory_rnic::CostModel;
use efactory_ycsb::{Op, OpStream};

/// Trace-ring bound for traced runs: far above anything a run can record,
/// so the ring never evicts (the caller still checks `dropped == 0`).
const TRACE_CAPACITY: usize = 1 << 32;

struct Args {
    cmd: String,
    workload: String,
    seed: u64,
    mode: String,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let cmd = it.next().ok_or("missing command (spec | run | probe)")?;
    let mut args = Args {
        cmd,
        workload: String::new(),
        seed: 42,
        mode: "full".into(),
        tiny: false,
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--tiny" => args.tiny = true,
            "--workload" | "--seed" | "--mode" => {
                let v = it.next().ok_or(format!("{flag} needs a value"))?;
                match flag.as_str() {
                    "--workload" => args.workload = v,
                    "--seed" => args.seed = v.parse().map_err(|_| format!("bad --seed '{v}'"))?,
                    _ => args.mode = v,
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
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

/// GET and PUT latency samples the spec must produce, from replaying each
/// client's op stream: a transaction records one PUT sample per written
/// key and a snapshot read one GET sample per read key.
fn expected_samples(spec: &ExperimentSpec) -> (u64, u64) {
    let (mut get, mut put) = (0u64, 0u64);
    for cid in 0..spec.clients {
        let mut stream = OpStream::new(workloads::workload_config(spec), spec.seed, cid as u64);
        for _ in 0..spec.ops_per_client {
            match stream.next_op() {
                Op::Get { .. } => get += 1,
                Op::Put { .. } => put += 1,
                Op::Txn { puts } => put += puts.len() as u64,
                Op::SnapRead { keys } => get += keys.len() as u64,
            }
        }
    }
    (get, put)
}

fn latency_json(s: &efactory_harness::LatencyStats) -> String {
    Obj::new()
        .u64("count", s.count)
        .f64("mean_ns", s.mean_ns, 3)
        .u64("p50_ns", s.p50_ns)
        .u64("p999_ns", s.p999_ns)
        .finish()
}

/// One timed harness run; the trace summary is `Some` for traced runs.
fn timed_run(spec: &ExperimentSpec, traced: bool) -> (RunResult, f64, Option<String>) {
    let t0 = Instant::now();
    if !traced {
        let r = cluster::run(spec);
        return (r, t0.elapsed().as_secs_f64(), None);
    }
    let obs = Obs::with_trace_capacity(TRACE_CAPACITY);
    let r = cluster::run_observed(spec, CostModel::default(), &obs);
    let wall_s = t0.elapsed().as_secs_f64();
    let trace = Obj::new()
        .u64("records", obs.tracer.len() as u64)
        .u64("dropped", obs.tracer.dropped())
        .raw(
            "breakdown",
            &r.breakdown.as_ref().map_or("null".into(), |b| b.to_json()),
        )
        .finish();
    (r, wall_s, Some(trace))
}

fn run_cmd(args: &Args, mut spec: ExperimentSpec) -> Result<String, String> {
    match args.mode.as_str() {
        "full" => {}
        "setup" | "traced-setup" => spec.ops_per_client = 0,
        "traced" => spec.ops_per_client = workloads::traced_ops(&args.workload, &spec),
        other => return Err(format!("unknown mode '{other}'")),
    }
    let (exp_get, exp_put) = expected_samples(&spec);
    let untraced_wall_s = (args.mode == "traced").then(|| timed_run(&spec, false).1);
    let (r, wall_s, trace) = timed_run(&spec, args.mode.starts_with("traced"));

    let mut counters = Obj::new();
    for (name, v) in &r.counters {
        counters = counters.u64(name, *v);
    }
    let mut out = Obj::new()
        .str("workload", &args.workload)
        .u64("seed", args.seed)
        .str("mode", &args.mode)
        .f64("wall_s", wall_s, 6)
        .f64("peak_rss_mb", peak_rss_mb(), 3)
        .u64("records", spec.record_count)
        .u64("value_len", spec.value_len as u64)
        .u64("total_ops", r.total_ops)
        .u64("elapsed_ns", r.elapsed_ns)
        .raw("get", &latency_json(&r.get))
        .raw("put", &latency_json(&r.put))
        .u64("expected_get", exp_get)
        .u64("expected_put", exp_put)
        .raw("counters", &counters.finish());
    if let Some(w) = untraced_wall_s {
        out = out.f64("untraced_wall_s", w, 6);
    }
    if let Some(t) = trace {
        out = out.raw("trace", &t);
    }
    Ok(out.finish())
}

/// The op counts one run of each mode attempts.
fn spec_cmd(args: &Args, spec: &ExperimentSpec) -> String {
    Obj::new()
        .str("workload", &args.workload)
        .u64("seed", args.seed)
        .u64("attempted", (spec.clients * spec.ops_per_client) as u64)
        .u64(
            "traced_attempted",
            (spec.clients * workloads::traced_ops(&args.workload, spec)) as u64,
        )
        .finish()
}

fn main() {
    let result = parse_args().and_then(|args| {
        let spec = workloads::spec(&args.workload, args.seed, args.tiny)
            .ok_or(format!("unknown workload '{}'", args.workload))?;
        match args.cmd.as_str() {
            "spec" => Ok(spec_cmd(&args, &spec)),
            "run" => run_cmd(&args, spec),
            "probe" => Ok(probe::all(&spec)),
            other => Err(format!("unknown command '{other}'")),
        }
    });
    match result {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
