//! Per-op latency decomposition probe: where does an operation's time go,
//! and which subsystem owns the tail?
//!
//! Runs the paper's two write-heavy mixes (Update-only and YCSB-A) at 256B
//! with tracing on, folds every attributed op's trace records into a
//! critical-path breakdown (`efactory_obs::critical_path`), and prints the
//! percentile attribution: for the p50/p99/p99.9 cohorts, each subsystem's
//! share of end-to-end latency. The conservation invariant (per-op phase
//! sums ≡ measured latency, exactly) is checked on every run — a non-zero
//! `conservation_max_err_ns` is a bug in the instrumentation, not noise.
//!
//! Always writes `BENCH_breakdown.json` (override with `--json`).
//! `--trace <path>` additionally exports the YCSB-A run as Chrome
//! `trace_event` JSON with the tail exemplars rendered on an overlay lane
//! (open in Perfetto; the worst ops sit on tid 7).

use efactory_bench::{path_flag, spec, ReportSink};
use efactory_harness::{cluster, SystemKind};
use efactory_obs::{Obs, Subsystem};
use efactory_rnic::CostModel;
use efactory_ycsb::Mix;

/// Trace ring large enough to hold both mixes' measured windows without
/// drops (the fold is total either way, but a complete trace keeps the
/// percentile cohorts exact).
const TRACE_CAPACITY: usize = 1 << 20;

fn main() {
    let mut sink = ReportSink::with_default_path("latency-breakdown", Some("BENCH_breakdown.json"));
    let trace_path = path_flag("trace");

    println!("eFactory per-op latency decomposition · 256B values · 8 clients");
    for (mix, label) in [
        (Mix::UpdateOnly, "Update-only/256B"),
        (Mix::A, "YCSB-A 50%GET/256B"),
    ] {
        let s = spec(SystemKind::EFactory, mix, 256);
        // One Obs per mix: the fold wants a single run's records, and the
        // optional chrome export should carry one run, not a concatenation.
        let obs = Obs::with_trace_capacity(TRACE_CAPACITY);
        let r = cluster::run_observed(&s, CostModel::default(), &obs);
        let b = r
            .breakdown
            .as_ref()
            .expect("eFactory run folds a breakdown");

        println!();
        println!(
            "{label} · {} ops · conservation_max_err={}ns · trace_dropped={}",
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

        sink.add(label, &s, &r);
        if mix == Mix::A {
            if let Some(path) = &trace_path {
                let overlay = b.chrome_overlay_events();
                let json = obs.tracer.to_chrome_json_with_overlay(&overlay);
                std::fs::write(path, json + "\n")
                    .unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
                println!("  chrome trace with exemplar overlay written to {path}");
            }
        }
    }
    sink.write();
}
