//! Design-choice ablations beyond the paper's figures — each isolates one
//! mechanism DESIGN.md calls out:
//!
//! 1. **Receive-region batching** — the paper credits eFactory's multiple
//!    receive regions for its 5–22 % PUT edge over Erda; toggle it.
//! 2. **Verifier cadence** — how the background scan interval trades
//!    RPC-fallback rate against verification lag (YCSB-B).
//! 3. **DDIO on/off** — with DDIO disabled, one-sided writes land directly
//!    in the persistence domain: IMM/SAW-style flushes become no-ops but
//!    inbound DMA slows (Kashyap et al.'s configuration study).
//! 4. **Cleaning threshold** — how eagerly log cleaning fires vs its
//!    latency interference (update-heavy churn).

use efactory_harness::{cluster, Cleaning, ExperimentSpec, Report, SystemKind, Table};
use efactory_rnic::CostModel;
use efactory_sim as sim;
use efactory_ycsb::Mix;

use crate::Scale;

pub fn run(scale: Scale) -> Report {
    println!("Design ablations (beyond the paper's figures)\n");
    let base = |system, mix| {
        scale.spec(ExperimentSpec {
            ops_per_client: 1_500,
            record_count: 2_048,
            seed: 21,
            ..ExperimentSpec::paper(system, mix, 256)
        })
    };
    let mut report = Report::new("ablations");
    ablate_recv_batching(base(SystemKind::EFactory, Mix::UpdateOnly), &mut report);
    ablate_verifier_cadence(base(SystemKind::EFactory, Mix::B), &mut report);
    ablate_ddio(base(SystemKind::Imm, Mix::UpdateOnly), &mut report);
    ablate_clean_threshold(base(SystemKind::EFactory, Mix::UpdateOnly), &mut report);
    report
}

fn ablate_recv_batching(spec: ExperimentSpec, report: &mut Report) {
    println!("--- ablation 1: receive-region batching (update-only, 256B) ---");
    let batched = cluster::run(&spec);
    // Unbatched: emulate by charging the unbatched recv cost for eFactory.
    let base_cost = CostModel::default();
    let cost = CostModel {
        cpu_recv_post_batched_ns: base_cost.cpu_recv_post_ns,
        ..base_cost
    };
    let unbatched = cluster::run_with_cost(&spec, cost);
    report.add("recv_batching/batched", &spec, &batched);
    report.add("recv_batching/unbatched", &spec, &unbatched);
    let mut t = Table::new(vec!["config", "Mops/s"]);
    t.row(vec![
        "batched recv ring (eFactory)".to_string(),
        format!("{:.3}", batched.mops),
    ]);
    t.row(vec![
        "per-message recv posting".to_string(),
        format!("{:.3}", unbatched.mops),
    ]);
    t.print();
    println!(
        "batching gain: {:+.1}%  (paper attributes a 5-22% PUT edge over Erda to this)\n",
        (batched.mops / unbatched.mops - 1.0) * 100.0
    );
}

fn ablate_verifier_cadence(spec: ExperimentSpec, report: &mut Report) {
    println!("--- ablation 2: background-verifier cadence (YCSB-B, 256B) ---");
    let mut t = Table::new(vec![
        "verify_idle",
        "Mops/s",
        "rpc fallbacks",
        "bg verified",
    ]);
    for idle_us in [1u64, 2, 10, 50, 200] {
        let r = cluster::run_with_server_cfg(&spec, CostModel::default(), move |cfg| {
            cfg.verify_idle = sim::micros(idle_us);
        });
        report.add(&format!("verifier_cadence/{idle_us}us"), &spec, &r);
        t.row(vec![
            format!("{idle_us} us"),
            format!("{:.3}", r.mops),
            r.server_rpc_gets.to_string(),
            r.bg_verified.to_string(),
        ]);
    }
    t.print();
    println!("slower scans ⇒ more hybrid-read fallbacks hit the RPC path\n");
}

fn ablate_ddio(spec: ExperimentSpec, report: &mut Report) {
    println!("--- ablation 3: DDIO on/off (IMM, update-only, 1KB) ---");
    let spec = ExperimentSpec {
        value_len: 1024,
        ..spec
    };
    let on = cluster::run(&spec);
    let cost = CostModel {
        ddio_enabled: false,
        ..CostModel::default()
    };
    let off = cluster::run_with_cost(&spec, cost);
    report.add("ddio/on", &spec, &on);
    report.add("ddio/off", &spec, &off);
    let mut t = Table::new(vec!["config", "Mops/s", "put p50 (us)"]);
    t.row(vec![
        "DDIO on (DMA → cache, flush required)".to_string(),
        format!("{:.3}", on.mops),
        format!("{:.2}", on.put.p50_us()),
    ]);
    t.row(vec![
        "DDIO off (DMA → memory, flush cheap)".to_string(),
        format!("{:.3}", off.mops),
        format!("{:.2}", off.put.p50_us()),
    ]);
    t.print();
    println!(
        "with DDIO off the server-side flush finds clean lines (data DMA'd straight to media)\n"
    );
}

fn ablate_clean_threshold(spec: ExperimentSpec, report: &mut Report) {
    println!("--- ablation 4: cleaning threshold (update-only churn, 512B) ---");
    let mut t = Table::new(vec!["threshold", "Mops/s", "cleanings", "avg latency (us)"]);
    for threshold in [0.4f64, 0.6, 0.8] {
        let spec = ExperimentSpec {
            value_len: 512,
            record_count: 512,
            cleaning: Cleaning::Enabled {
                threshold,
                pool_len: 2 << 20,
            },
            ..spec.clone()
        };
        let r = cluster::run(&spec);
        report.add(&format!("clean_threshold/{threshold:.1}"), &spec, &r);
        t.row(vec![
            format!("{threshold:.1}"),
            format!("{:.3}", r.mops),
            r.cleanings.to_string(),
            format!("{:.2}", r.all.mean_us()),
        ]);
    }
    t.print();
    println!("lower thresholds clean more often; each pass pins readers to the RPC path\n");
}
