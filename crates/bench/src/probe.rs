//! A gated probe as data, and the one runner that executes it.
//!
//! A probe declares labelled runs at full scale, whether it traces, and
//! its acceptance bounds. [`Probe::run`] scales, runs and times each run,
//! prints one row per run (and, when traced, its critical-path
//! attribution), evaluates the bounds, and returns the report that
//! `bench` writes to `BENCH_<name>.json`.

use std::path::Path;
use std::time::Instant;

use efactory_harness::{cluster, Bound, ExperimentSpec, Report, RunResult};
use efactory_obs::json::Obj;
use efactory_obs::{Obs, Subsystem};
use efactory_rnic::CostModel;

use crate::Scale;

/// Trace ring large enough to hold a traced probe's measured windows
/// without drops (the fold is total either way, but a complete trace keeps
/// the percentile cohorts exact).
const TRACE_CAPACITY: usize = 1 << 20;

/// One gated benchmark.
pub struct Probe {
    /// The CLI name, the report's `figure`, and `BENCH_<name>.json`.
    pub name: &'static str,
    /// Whether each run is traced and folded into a critical-path
    /// breakdown (and `--trace` may export the last run).
    pub traced: bool,
    /// The runs, in report order, at full scale.
    pub runs: Vec<Run>,
    /// The acceptance bounds, in report order.
    pub bounds: Vec<Check>,
}

/// One labelled run of a probe.
pub struct Run {
    pub label: String,
    pub spec: ExperimentSpec,
}

/// An acceptance bound: a value derived from the probe's results, which
/// must stay within `limit`.
pub struct Check {
    pub name: &'static str,
    pub limit: Bound,
    pub value: fn(&Results) -> f64,
}

/// A probe's finished runs, looked up by label.
pub struct Results(Vec<(String, RunResult)>);

impl Results {
    /// The result of the run labelled `label`.
    pub fn get(&self, label: &str) -> &RunResult {
        self.0
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, r)| r)
            .unwrap_or_else(|| panic!("a bound reads undeclared run {label:?}"))
    }

    /// Simulator events dispatched per wall-clock second inside that run's
    /// measurement window.
    pub fn window_events_per_sec(&self, label: &str) -> f64 {
        self.get(label).host.window_events_per_sec()
    }
}

impl Probe {
    /// The report file this probe writes under `bench all`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// Execute every run at `scale`, print it, and return the report with
    /// every bound evaluated. A traced probe given a `trace` path writes
    /// its last run's Chrome trace there, tail exemplars overlaid on
    /// `tid` 8 ([`efactory_obs::trace::OVERLAY_LANE`]).
    pub fn run(&self, scale: Scale, trace: Option<&Path>) -> Result<Report, String> {
        println!("{} · {} runs", self.name, self.runs.len());
        println!(
            "{:<38} {:>9} {:>10} {:>10} {:>10} {:>10}",
            "run", "Mops", "p50 µs", "p99 µs", "p99.9 µs", "wall ms"
        );
        let mut report = Report::new(self.name);
        let mut results = Results(Vec::new());
        let mut last_obs = None;
        for run in &self.runs {
            let spec = scale.spec(run.spec.clone());
            let obs = if self.traced {
                Obs::with_trace_capacity(TRACE_CAPACITY)
            } else {
                Obs::default()
            };
            let t0 = Instant::now();
            let r = cluster::run_observed(&spec, CostModel::default(), &obs);
            let wall_ns = t0.elapsed().as_nanos() as u64;
            let events = r
                .counters
                .iter()
                .find(|(n, _)| n == "sim.events_dispatched")
                .map_or(0, |(_, v)| *v);
            let eps = events as f64 / (wall_ns as f64 / 1e9);
            let us = |ns: u64| ns as f64 / 1000.0;
            println!(
                "{:<38} {:>9.3} {:>10.2} {:>10.2} {:>10.2} {:>10}",
                run.label,
                r.mops,
                us(r.all.p50_ns),
                us(r.all.p99_ns),
                us(r.all.p999_ns),
                wall_ns / 1_000_000,
            );
            if self.traced {
                print_attribution(&r, &obs);
            }
            // The run's whole wall time first, then its split at the
            // window's edges: before the window (format, load, start) and
            // inside it.
            let wall = Obj::new()
                .u64("wall_ns", wall_ns)
                .f64("events_per_wall_sec", eps, 0)
                .u64("load_ns", r.host.load_ns)
                .u64("load_events", r.host.load_events)
                .u64("window_ns", r.host.window_ns)
                .u64("window_events", r.host.window_events)
                .f64("window_events_per_sec", r.host.window_events_per_sec(), 0);
            report.add_with_wall(&run.label, &spec, &r, wall);
            results.0.push((run.label.clone(), r));
            last_obs = Some(obs);
        }
        for check in &self.bounds {
            let value = (check.value)(&results);
            let verdict = if check.limit.holds(value) {
                "ok"
            } else {
                "VIOLATED"
            };
            println!(
                "bound {} = {value:.2} ({}): {verdict}",
                check.name, check.limit
            );
            report.bound(check.name, value, check.limit);
        }
        if let (Some(path), Some(obs), Some((_, r))) = (trace, last_obs, results.0.last()) {
            let b = r
                .breakdown
                .as_ref()
                .expect("a traced run folds a breakdown");
            let json = obs
                .tracer
                .to_chrome_json_with_overlay(&b.chrome_overlay_events());
            std::fs::write(path, json + "\n")
                .map_err(|e| format!("failed to write {}: {e}", path.display()))?;
            println!(
                "chrome trace with exemplar overlay written to {}",
                path.display()
            );
        }
        Ok(report)
    }
}

/// A traced run's critical-path attribution: for the p50/p99/p99.9
/// cohorts, each subsystem's share of end-to-end latency, and the tail
/// exemplars. The conservation invariant (per-op phase sums ≡ measured
/// latency) must print 0 ns: anything else is an instrumentation bug.
fn print_attribution(r: &RunResult, obs: &Obs) {
    let b = r
        .breakdown
        .as_ref()
        .expect("a traced run folds a breakdown");
    println!(
        "  {} ops · conservation_max_err={}ns · trace_dropped={}",
        b.ops,
        b.conservation_max_err_ns,
        obs.tracer.dropped(),
    );
    println!(
        "  {:<6} {:>12} {:>7}   subsystem shares (% of cohort latency)",
        "cohort", "threshold µs", "ops"
    );
    for p in &b.percentiles {
        let shares = Subsystem::ALL
            .iter()
            .filter(|sub| p.share_pct(**sub) > 0.0)
            .map(|sub| format!("{} {:.2}", sub.label(), p.share_pct(*sub)))
            .collect::<Vec<_>>()
            .join("  ");
        println!(
            "  {:<6} {:>12.2} {:>7}   {shares}   ← {}",
            p.label,
            p.threshold_ns as f64 / 1000.0,
            p.cohort,
            p.dominant.label(),
        );
    }
    println!("  tail exemplars:");
    for e in &b.exemplars {
        println!(
            "    op {} {} shard{} retries={} latency {:.2}µs ({} phases)",
            e.summary.op,
            e.summary.kind_label(),
            e.summary.shard,
            e.summary.retries,
            e.summary.latency as f64 / 1000.0,
            e.segments.len(),
        );
    }
}
