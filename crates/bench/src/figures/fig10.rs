//! **Figure 10** — "Throughput with variable number of client processes":
//! the six systems on the four workloads, sweeping 1–16 clients with
//! 32-byte keys and 2048-byte values.
//!
//! Paper's observations to reproduce:
//! * eFactory scales ≈linearly with client count on every workload;
//! * IMM and SAW stop scaling when writes dominate (server CPU on the
//!   critical path); at 16 clients eFactory beats them by up to
//!   2.14×/2.18× on the write-intensive mix;
//! * read-heavy: eFactory w/o hr improves Forca by 16–48 %; hybrid read
//!   adds another 11–24 %; overall ≈24 %/50 % over Erda/Forca at 16
//!   clients.

use efactory_harness::{cluster, ExperimentSpec, Report, SystemKind, Table};
use efactory_ycsb::Mix;

use crate::{mix_tag, Scale};

const CLIENTS: [usize; 5] = [1, 2, 4, 8, 16];

pub fn run(scale: Scale) -> Report {
    println!("Figure 10: throughput vs number of clients (32B keys, 2048B values)\n");
    let mut report = Report::new("fig10");
    for mix in [Mix::C, Mix::B, Mix::A, Mix::UpdateOnly] {
        println!("--- {} ---", mix_tag(mix));
        let mut table = Table::new(vec!["system", "clients", "Mops/s", "scale vs 1"]);
        for system in SystemKind::comparison() {
            let mut base = None;
            for &clients in &CLIENTS {
                let s = scale.spec(ExperimentSpec {
                    clients,
                    // Keep total measured ops roughly constant across points.
                    ops_per_client: 16_000 / clients,
                    ..ExperimentSpec::paper(system, mix, 2048)
                });
                let r = cluster::run(&s);
                report.add(
                    &format!("{}/{}/{}c", mix_tag(mix), system.label(), clients),
                    &s,
                    &r,
                );
                let b = *base.get_or_insert(r.mops);
                table.row(vec![
                    system.label().to_string(),
                    clients.to_string(),
                    format!("{:.3}", r.mops),
                    format!("{:.2}x", r.mops / b),
                ]);
            }
        }
        table.print();
        println!();
    }
    report
}
