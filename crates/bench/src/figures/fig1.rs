//! **Figure 1** — "Latency of writing to remote NVMM with different
//! methods": median and 99th-percentile PUT latency of the client-active
//! scheme without persistence, SAW, IMM, and RPC, across value sizes.
//! (eFactory is appended for context; the paper introduces it later.)
//!
//! Paper's observations to reproduce:
//! * CA w/o persistence is ≈36 % faster than RPC;
//! * SAW is *worse* than RPC at every size;
//! * IMM is slightly (≈5 %) better than RPC.

use efactory_harness::{cluster, ExperimentSpec, Report, SystemKind, Table};
use efactory_ycsb::Mix;

use crate::{size_label, Scale, VALUE_SIZES};

pub fn run(scale: Scale) -> Report {
    println!("Figure 1: durable remote PUT latency (single client, update-only)\n");
    let mut report = Report::new("fig1");
    let systems = [
        SystemKind::CaNoper,
        SystemKind::Saw,
        SystemKind::Imm,
        SystemKind::Rpc,
        SystemKind::EFactory,
    ];
    let mut table = Table::new(vec![
        "system".to_string(),
        "size".to_string(),
        "p50 (us)".to_string(),
        "p99 (us)".to_string(),
        "vs RPC p50".to_string(),
    ]);
    for &size in &VALUE_SIZES {
        // Run RPC first to compute the ratio column.
        let mut results = Vec::new();
        for &system in &systems {
            let s = scale.spec(ExperimentSpec {
                clients: 1,
                ops_per_client: 500,
                ..ExperimentSpec::paper(system, Mix::UpdateOnly, size)
            });
            let r = cluster::run(&s);
            report.add(&format!("{}/{}", system.label(), size_label(size)), &s, &r);
            results.push((system, r));
        }
        let rpc_p50 = results
            .iter()
            .find(|(k, _)| *k == SystemKind::Rpc)
            .map(|(_, r)| r.put.p50_ns as f64)
            .expect("rpc run");
        for (system, r) in &results {
            table.row(vec![
                system.label().to_string(),
                size_label(size),
                format!("{:.2}", r.put.p50_us()),
                format!("{:.2}", r.put.p99_us()),
                format!("{:.2}x", r.put.p50_ns as f64 / rpc_p50),
            ]);
        }
    }
    table.print();
    println!();
    println!("expected shape (paper): CA-noper ~0.64x RPC; SAW >1x RPC; IMM ~0.95x RPC");
    report
}
