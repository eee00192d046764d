//! **Figure 11** — "The performance impact caused by log cleaning": average
//! operation latency of eFactory with and without a log-cleaning pass
//! overlapping the measurement, for the four workloads (32 B keys, 2048 B
//! values, 8 clients, one record per client op).
//!
//! Paper's observations to reproduce: cleaning costs 1–21 % extra latency;
//! read-heavy workloads suffer the most (clients lose the hybrid read and
//! go through the server), ≈21 % for 100 % GET, while 100 % PUT barely
//! moves.

use efactory_harness::{cluster, Cleaning, ExperimentSpec, Report, SystemKind, Table};
use efactory_ycsb::Mix;

use crate::{mix_tag, Scale};

pub fn run(scale: Scale) -> Report {
    println!("Figure 11: eFactory latency with vs without log cleaning\n");
    let mut report = Report::new("fig11");
    let mut table = Table::new(vec![
        "workload",
        "avg (us) normal",
        "avg (us) cleaning",
        "overhead",
    ]);
    for mix in [Mix::C, Mix::B, Mix::A, Mix::UpdateOnly] {
        // Pools large enough that the threshold never fires on its own;
        // the "cleaning" run forces one pass at measurement start. The
        // pass relocates every record and walks a hash table of four
        // buckets per record, so it grows with `record_count`, while the
        // measured window grows with the op count. One record per client
        // op keeps a whole pass inside the window at every scale (4,096
        // records outlast YCSB-C's 8 ms window at full scale).
        let [normal, cleaning] = [false, true].map(|force_clean| {
            let s = scale.spec(ExperimentSpec {
                cleaning: Cleaning::Enabled {
                    threshold: 1.1,
                    pool_len: 96 << 20,
                },
                force_clean,
                ..ExperimentSpec::paper(SystemKind::EFactory, mix, 2048)
            });
            let s = ExperimentSpec {
                record_count: s.ops_per_client as u64,
                ..s
            };
            let r = cluster::run(&s);
            let tag = if force_clean { "cleaning" } else { "normal" };
            report.add(&format!("{}/{tag}", mix_tag(mix)), &s, &r);
            r
        });
        assert!(cleaning.cleanings >= 1, "forced cleaning did not run");
        let overhead = (cleaning.all.mean_ns - normal.all.mean_ns) / normal.all.mean_ns * 100.0;
        table.row(vec![
            mix_tag(mix).to_string(),
            format!("{:.2}", normal.all.mean_us()),
            format!("{:.2}", cleaning.all.mean_us()),
            format!("{overhead:+.1}%"),
        ]);
    }
    table.print();
    println!();
    println!("expected shape (paper): 1-21% overhead; largest for 100% GET (~21%), smallest for 100% PUT");
    report
}
