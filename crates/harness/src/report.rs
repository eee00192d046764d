//! Machine-readable run reports.
//!
//! Every bench binary can emit its results as JSON (`--json <path>`) so
//! perf trajectories can be tracked across commits without scraping the
//! rendered tables. The schema is versioned (`"schema": "efactory-run-report/v2"`)
//! and documented in `EXPERIMENTS.md`; rendering is deterministic — entries
//! appear in insertion order, counters in lexicographic order, and all
//! numbers use fixed-point formatting — so same seed ⇒ byte-identical file.
//!
//! v2 adds two per-entry sections, present whenever the run folded a
//! critical-path breakdown (eFactory runs with attributed ops): `breakdown`
//! (per-subsystem phase totals, off-path work, and percentile attribution)
//! and `tail_exemplars` (the K slowest ops with their full phase timeline).

use std::io;
use std::path::Path;

use efactory_obs::json::{Arr, Obj};
use efactory_rnic::CostModel;

use crate::cluster::{ExperimentSpec, RunResult};
use crate::stats::LatencyStats;

/// Schema identifier stamped into every report.
pub const SCHEMA: &str = "efactory-run-report/v2";

/// A JSON run report: one entry per experiment plus the cost-model
/// constants the runs were charged with.
pub struct Report {
    figure: String,
    cost: CostModel,
    entries: Vec<String>,
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
        }
    }

    /// Record one experiment's spec + result under `label`.
    pub fn add(&mut self, label: &str, spec: &ExperimentSpec, result: &RunResult) {
        let mut params = Obj::new()
            .str("system", result.system)
            .str("mix", &format!("{:?}", spec.mix))
            .u64("value_len", spec.value_len as u64)
            .u64("key_len", spec.key_len as u64)
            .u64("clients", spec.clients as u64)
            .u64("ops_per_client", spec.ops_per_client as u64)
            .u64("record_count", spec.record_count)
            .u64("seed", result.seed)
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
        let params = params.finish();
        let mut counters = Obj::new();
        for (name, v) in &result.counters {
            counters = counters.u64(name, *v);
        }
        let mut entry = Obj::new()
            .str("label", label)
            .raw("params", &params)
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
        // v2: the critical-path sections, present only when the run folded
        // attributed ops (baseline systems emit no "op" roots).
        if let Some(b) = &result.breakdown {
            entry = entry
                .raw("breakdown", &b.to_json())
                .raw("tail_exemplars", &b.exemplars_json());
        }
        self.entries.push(entry.finish());
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
        let mut entries = Arr::new();
        for e in &self.entries {
            entries = entries.raw(e);
        }
        Obj::new()
            .str("schema", SCHEMA)
            .str("figure", &self.figure)
            .raw("cost_model", &cost_model_json(&self.cost))
            .raw("entries", &entries.finish())
            .finish()
    }

    /// Write the report to `path` (trailing newline included).
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json() + "\n")
    }
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

/// Parse a `--json <path>` argument pair out of `std::env::args`-style
/// input. Returns the path if the flag is present — possibly empty when
/// the flag was given without a value (`--json` at end of line, or
/// `--json=`), which callers should reject up front rather than panic
/// at write time after the benchmark has run.
pub fn json_path_from_args(args: impl Iterator<Item = String>) -> Option<String> {
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        if a == "--json" {
            return Some(args.next().unwrap_or_default());
        }
        if let Some(p) = a.strip_prefix("--json=") {
            return Some(p.to_string());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{run_with_cost, Cleaning, SystemKind};
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
    fn json_arg_parsing() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            json_path_from_args(args(&["bin", "--json", "out.json"]).into_iter()),
            Some("out.json".to_string())
        );
        assert_eq!(
            json_path_from_args(args(&["bin", "--json=x.json"]).into_iter()),
            Some("x.json".to_string())
        );
        assert_eq!(json_path_from_args(args(&["bin"]).into_iter()), None);
        // Flag without a value parses as an empty path so callers can
        // report the mistake instead of silently dropping the report.
        assert_eq!(
            json_path_from_args(args(&["bin", "--json"]).into_iter()),
            Some(String::new())
        );
        assert_eq!(
            json_path_from_args(args(&["bin", "--json="]).into_iter()),
            Some(String::new())
        );
    }

    #[test]
    fn report_is_schema_stamped_and_deterministic() {
        let s = spec();
        let cost = CostModel::default();
        let render = || {
            let mut rep = Report::new("test");
            let r = run_with_cost(&s, cost.clone());
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
