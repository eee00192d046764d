//! Machine-readable run reports.
//!
//! Every `bench` probe and figure can emit its results as JSON
//! (`--json <path>`) so perf trajectories can be tracked across commits
//! without scraping the rendered tables. The schema is versioned (`"schema": "efactory-run-report/v3"`)
//! and documented in `EXPERIMENTS.md`; rendering is deterministic — entries
//! appear in insertion order, counters in lexicographic order, and all
//! numbers use fixed-point formatting — so same seed ⇒ byte-identical file,
//! apart from the `wall` objects.
//!
//! v2 added two per-entry sections, present whenever the run folded a
//! critical-path breakdown (traced eFactory runs with attributed ops whose
//! trace ring dropped nothing): `breakdown` (per-subsystem phase totals, off-path
//! work, and percentile attribution) and `tail_exemplars` (the K slowest
//! ops with their full phase timeline). v3 adds a top-level `bounds` list
//! (the acceptance bounds the probe checked, `{name, value, min|max}`) and
//! an optional per-entry `wall` object (wall-clock measurements, the only
//! numbers that differ between two runs of one seed).

use std::fmt;
use std::io;
use std::path::Path;

use efactory_obs::json::{Arr, Obj};
use efactory_rnic::CostModel;

use crate::cluster::{ExperimentSpec, RunResult};
use crate::stats::LatencyStats;

/// Schema identifier stamped into every report.
pub const SCHEMA: &str = "efactory-run-report/v3";

/// The limit of an acceptance bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    Min(f64),
    Max(f64),
}

impl Bound {
    /// Whether `value` lies within the limit.
    pub fn holds(self, value: f64) -> bool {
        match self {
            Bound::Min(m) => value >= m,
            Bound::Max(m) => value <= m,
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Min(m) => write!(f, "min {m}"),
            Bound::Max(m) => write!(f, "max {m}"),
        }
    }
}

/// A JSON run report: one entry per experiment, the acceptance bounds the
/// probe checked, and the cost-model constants the runs were charged with.
pub struct Report {
    figure: String,
    cost: CostModel,
    entries: Vec<String>,
    bounds: Vec<String>,
}

impl Report {
    /// Start a report for `figure` (e.g. `"fig1"`), priced by the default
    /// cost model.
    pub fn new(figure: &str) -> Report {
        Report::with_cost(figure, CostModel::default())
    }

    /// Start a report whose runs used a custom cost model (ablations).
    pub fn with_cost(figure: &str, cost: CostModel) -> Report {
        Report {
            figure: figure.to_string(),
            cost,
            entries: Vec::new(),
            bounds: Vec::new(),
        }
    }

    /// Record one experiment's spec + result under `label`.
    pub fn add(&mut self, label: &str, spec: &ExperimentSpec, result: &RunResult) {
        self.entries.push(entry(label, spec, result).finish());
    }

    /// Like [`Report::add`], plus a `wall` object of wall-clock
    /// measurements, which vary from run to run.
    pub fn add_with_wall(
        &mut self,
        label: &str,
        spec: &ExperimentSpec,
        result: &RunResult,
        wall: Obj,
    ) {
        let entry = entry(label, spec, result).raw("wall", &wall.finish());
        self.entries.push(entry.finish());
    }

    /// Record an acceptance bound: `value` must stay within `limit`.
    pub fn bound(&mut self, name: &str, value: f64, limit: Bound) {
        let (key, limit) = match limit {
            Bound::Min(m) => ("min", m),
            Bound::Max(m) => ("max", m),
        };
        let bound = Obj::new()
            .str("name", name)
            .f64("value", value, 6)
            .raw(key, &limit.to_string());
        self.bounds.push(bound.finish());
    }

    /// Record a latency-only measurement (micro-drivers that bypass the
    /// cluster harness, e.g. Figure 2's read-after-write probe). The entry
    /// carries `label` and the `all` latency block only.
    pub fn add_latency(&mut self, label: &str, stats: &LatencyStats) {
        let entry = Obj::new()
            .str("label", label)
            .raw("all", &latency_json(stats))
            .finish();
        self.entries.push(entry);
    }

    /// Render the whole report.
    pub fn to_json(&self) -> String {
        let mut bounds = Arr::new();
        for b in &self.bounds {
            bounds = bounds.raw(b);
        }
        let mut entries = Arr::new();
        for e in &self.entries {
            entries = entries.raw(e);
        }
        Obj::new()
            .str("schema", SCHEMA)
            .str("figure", &self.figure)
            .raw("cost_model", &cost_model_json(&self.cost))
            .raw("bounds", &bounds.finish())
            .raw("entries", &entries.finish())
            .finish()
    }

    /// Write the report to `path` (trailing newline included).
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json() + "\n")
    }
}

/// The `params` object every entry renders for `spec`: the spec's
/// fields, with injected events and fault plans stamped only when set.
pub fn params_json(spec: &ExperimentSpec) -> String {
    let mut params = Obj::new()
        .str("system", spec.system.label())
        .str("mix", &format!("{:?}", spec.mix))
        .u64("value_len", spec.value_len as u64)
        .u64("key_len", spec.key_len as u64)
        .u64("clients", spec.clients as u64)
        .u64("ops_per_client", spec.ops_per_client as u64)
        .u64("record_count", spec.record_count)
        .u64("seed", spec.seed)
        .str("cleaning", &format!("{:?}", spec.cleaning))
        .bool("force_clean", spec.force_clean)
        .u64("shards", spec.shards as u64)
        .u64("doorbell_batch", spec.doorbell_batch as u64)
        .u64("replicas", spec.replicas as u64)
        .bool("scrub", spec.scrub)
        .u64("window", spec.window as u64)
        .bool("loc_cache", spec.loc_cache)
        .u64("nodes", spec.nodes as u64)
        .u64("snap_readers", spec.snap_readers as u64);
    // Injected events appear only when set, so steady-state runs and
    // failover or migration runs are distinguishable.
    if let Some(fault_at) = spec.fault_at {
        params = params.u64("fault_at_ns", fault_at);
    }
    if let Some(migrate_at) = spec.migrate_at {
        params = params.u64("migrate_at_ns", migrate_at);
    }
    // Same for the lossy-fabric plan: its parameters are stamped only
    // on chaos runs, so a report reader can tell a degraded-but-clean
    // fabric from a faulted one at a glance.
    if let Some(plan) = spec.fault_plan {
        params = params
            .f64("fault_drop_p", plan.drop_p, 6)
            .f64("fault_dup_p", plan.dup_p, 6)
            .f64("fault_delay_p", plan.delay_p, 6)
            .u64("fault_delay_ns", plan.delay_ns)
            .u64("fault_seed", plan.seed);
    }
    params.finish()
}

/// One experiment's entry, left open for optional sections.
fn entry(label: &str, spec: &ExperimentSpec, result: &RunResult) -> Obj {
    let mut counters = Obj::new();
    for (name, v) in &result.counters {
        counters = counters.u64(name, *v);
    }
    let mut entry = Obj::new()
        .str("label", label)
        .raw("params", &params_json(spec))
        .u64("total_ops", result.total_ops)
        .u64("elapsed_ns", result.elapsed_ns)
        .f64("mops", result.mops, 6)
        .raw("get", &latency_json(&result.get))
        .raw("put", &latency_json(&result.put))
        .raw("all", &latency_json(&result.all))
        .u64("server_rpc_gets", result.server_rpc_gets)
        .u64("bg_verified", result.bg_verified)
        .u64("cleanings", result.cleanings)
        .raw("counters", &counters.finish());
    // v2: the critical-path sections, present only when a traced run
    // folded attributed ops (untraced runs and baseline systems, which
    // emit no "op" roots, fold nothing; nor does a run whose trace ring
    // overflowed).
    if let Some(b) = &result.breakdown {
        entry = entry
            .raw("breakdown", &b.to_json())
            .raw("tail_exemplars", &b.exemplars_json());
    }
    entry
}

fn latency_json(s: &LatencyStats) -> String {
    Obj::new()
        .u64("count", s.count)
        .f64("mean_ns", s.mean_ns, 3)
        .u64("p50_ns", s.p50_ns)
        .u64("p99_ns", s.p99_ns)
        .u64("p999_ns", s.p999_ns)
        .u64("max_ns", s.max_ns)
        .finish()
}

fn cost_model_json(c: &CostModel) -> String {
    Obj::new()
        .u64("net_one_way_ns", c.net_one_way_ns)
        .u64("net_ns_per_kb", c.net_ns_per_kb)
        .u64("cpu_recv_post_ns", c.cpu_recv_post_ns)
        .u64("cpu_recv_post_batched_ns", c.cpu_recv_post_batched_ns)
        .u64("cpu_send_post_ns", c.cpu_send_post_ns)
        .u64("cpu_send_post_batched_ns", c.cpu_send_post_batched_ns)
        .u64("cpu_req_handle_ns", c.cpu_req_handle_ns)
        .u64("cpu_hash_ns", c.cpu_hash_ns)
        .u64("cpu_alloc_ns", c.cpu_alloc_ns)
        .u64("cpu_mem_hop_ns", c.cpu_mem_hop_ns)
        .u64("cpu_memcpy_ns_per_kb", c.cpu_memcpy_ns_per_kb)
        .u64("cpu_imm_completion_ns", c.cpu_imm_completion_ns)
        .u64("cpu_twosided_bulk_ns", c.cpu_twosided_bulk_ns)
        .u64("crc_ns_per_kb", c.crc_ns_per_kb)
        .u64("crc_hw_ns_per_kb", c.crc_hw_ns_per_kb)
        .u64("flush_base_ns", c.flush_base_ns)
        .u64("flush_ns_per_kb", c.flush_ns_per_kb)
        .bool("ddio_enabled", c.ddio_enabled)
        .u64("non_ddio_dma_ns_per_kb", c.non_ddio_dma_ns_per_kb)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{run_observed, run_with_cost, Cleaning, SystemKind};
    use efactory_obs::Obs;
    use efactory_ycsb::Mix;

    fn spec() -> ExperimentSpec {
        ExperimentSpec {
            system: SystemKind::EFactory,
            mix: Mix::A,
            value_len: 128,
            key_len: 16,
            clients: 2,
            ops_per_client: 40,
            record_count: 32,
            seed: 11,
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

    #[test]
    fn report_is_schema_stamped_and_deterministic() {
        let s = spec();
        let render = || {
            let obs = Obs::with_trace_capacity(1 << 16);
            let r = run_observed(&s, CostModel::default(), &obs);
            assert!(!obs.tracer.is_empty(), "a traced run keeps its trace");
            let mut rep = Report::new("test");
            rep.add("run-a", &s, &r);
            rep.to_json()
        };
        let a = render();
        let b = render();
        assert_eq!(a, b, "same seed must render byte-identical reports");
        assert!(a.starts_with(&format!("{{\"schema\":\"{SCHEMA}\"")));
        assert!(a.contains("\"cost_model\":{\"net_one_way_ns\":900"));
        assert!(a.contains("\"p999_ns\":"));
        assert!(a.contains("\"server.puts\":"));
        assert!(a.contains("\"pmem.flushes\":"));
        assert!(a.contains("\"fabric.sends\":"));
        assert!(a.contains("\"replicas\":0"));
        assert!(a.contains("\"scrub\":false"));
        assert!(a.contains("\"nodes\":1"));
        assert!(a.contains("\"snap_readers\":0"));
        assert!(!a.contains("\"migrate_at_ns\""), "unset migration omitted");
        assert!(a.contains("\"fabric.crashes\":0"));
        assert!(a.contains("\"fabric.links_down\":0"));
        assert!(a.contains("\"fabric.fault.dropped\":0"));
        assert!(!a.contains("\"fault_at_ns\""), "unset fault omitted");
        assert!(!a.contains("\"fault_drop_p\""), "unset plan omitted");
        // v2 sections: an eFactory run with measured ops folds a breakdown
        // whose conservation invariant holds exactly, plus tail exemplars.
        assert!(a.contains("\"breakdown\":{\"ops\":"));
        assert!(a.contains("\"conservation_max_err_ns\":0"));
        assert!(a.contains("\"tail_exemplars\":[{\"op\":"));
        assert!(a.contains("\"obs.trace_dropped\":0"));
    }

    #[test]
    fn untraced_report_omits_breakdown_and_exemplars() {
        let s = spec();
        let r = run_with_cost(&s, CostModel::default());
        assert!(r.total_ops > 0 && r.breakdown.is_none());
        let mut rep = Report::new("test");
        rep.add("run-u", &s, &r);
        let json = rep.to_json();
        assert!(json.contains("\"server.puts\":"));
        assert!(json.contains("\"obs.trace_dropped\":0"));
        assert!(!json.contains("\"breakdown\""));
        assert!(!json.contains("\"tail_exemplars\""));
    }

    #[test]
    fn bounds_and_wall_sections_render() {
        let s = spec();
        let r = run_with_cost(&s, CostModel::default());
        let mut rep = Report::new("test");
        assert!(rep.to_json().contains("\"bounds\":[],\"entries\":[]"));
        rep.add_with_wall("run-w", &s, &r, Obj::new().u64("wall_ns", 5));
        rep.bound("speedup", 2.5, Bound::Min(2.0));
        rep.bound("overhead_pct", 30.0, Bound::Max(25.0));
        let json = rep.to_json();
        assert!(json.contains(
            "\"bounds\":[{\"name\":\"speedup\",\"value\":2.500000,\"min\":2},\
             {\"name\":\"overhead_pct\",\"value\":30.000000,\"max\":25}]"
        ));
        assert!(json.contains("\"wall\":{\"wall_ns\":5}"));
        assert!(Bound::Min(2.0).holds(2.5) && !Bound::Max(25.0).holds(30.0));
    }

    #[test]
    fn replicated_faulted_run_stamps_fault_instant() {
        let s = ExperimentSpec {
            replicas: 1,
            fault_at: Some(5_000),
            ..spec()
        };
        let mut rep = Report::new("test");
        let r = run_with_cost(&s, CostModel::default());
        rep.add("run-f", &s, &r);
        let json = rep.to_json();
        assert!(json.contains("\"replicas\":1"));
        assert!(json.contains("\"fault_at_ns\":5000"));
    }

    #[test]
    fn cluster_run_stamps_topology_and_migration_instant() {
        let s = ExperimentSpec {
            nodes: 2,
            shards: 2,
            snap_readers: 1,
            migrate_at: Some(7_000),
            ..spec()
        };
        let mut rep = Report::new("test");
        let r = run_with_cost(&s, CostModel::default());
        rep.add("run-m", &s, &r);
        let json = rep.to_json();
        assert!(json.contains("\"nodes\":2"));
        assert!(json.contains("\"snap_readers\":1"));
        assert!(json.contains("\"migrate_at_ns\":7000"));
    }

    #[test]
    fn zero_op_run_reports_zero_summary() {
        // A run with no measured operations must still produce a report
        // (explicit zero summary) rather than aborting.
        let s = ExperimentSpec {
            ops_per_client: 0,
            ..spec()
        };
        let mut rep = Report::new("test");
        let r = run_with_cost(&s, CostModel::default());
        rep.add("run-z", &s, &r);
        let json = rep.to_json();
        assert!(json.contains("\"total_ops\":0"));
        assert!(json.contains("\"count\":0"));
        // No measured ops ⇒ no attributed roots in the window ⇒ the v2
        // sections are omitted rather than rendered empty.
        assert!(!json.contains("\"breakdown\""));
    }
}
