//! **Figure 9** — "End-to-end throughput comparison with different value
//! sizes": the six systems (eFactory, eFactory w/o hybrid read, SAW, IMM,
//! Erda, Forca) on four YCSB workloads × four value sizes, with 8
//! concurrent clients.
//!
//! Paper's observations to reproduce:
//! * (a) read-only: eFactory ≈ IMM ≈ SAW; Erda degrades as values grow
//!   (client CRC); Forca is lowest (RPC on every read); at 4 KB eFactory is
//!   1.96× Erda and 1.67× Forca;
//! * (b) 95 % GET: eFactory ≈ SAW ≈ 95 % of IMM, still 1.74×/1.61× over
//!   Erda/Forca;
//! * (c) 50 % GET: eFactory highest at every size;
//! * (d) update-only: eFactory beats IMM by 0.42–2.79× and SAW by
//!   0.66–2.85× (improvement ratios), 5–22 % over Erda, ≳ Forca at small
//!   values.
//!
//! **Headline claims** (abstract + §6): the improvement-ratio summary the
//! paper quotes, printed from this figure's own runs — the write table
//! after the update-only panel, the read table after the read-only one:
//!
//! * write (update-only): eFactory outperforms IMM by 0.42–2.79× and SAW by
//!   0.66–2.85× (improvement ratio = eF/other − 1);
//! * read (read-only): eFactory's throughput is 1.3–1.96× Erda's (at sizes
//!   where CRC matters, i.e. excluding 64 B — see the paper's footnote 2)
//!   and 1.24–1.67× Forca's.
//!
//! `--workload {a|b|c|u}` runs one panel; the default runs all four.

use efactory_harness::{cluster, ExperimentSpec, Report, SystemKind, Table};
use efactory_ycsb::Mix;

use crate::{mix_tag, size_label, Scale, VALUE_SIZES};

/// The panels in the paper's order, by their `--workload` letter.
pub const PANELS: [(&str, Mix); 4] = [
    ("c", Mix::C),
    ("b", Mix::B),
    ("a", Mix::A),
    ("u", Mix::UpdateOnly),
];

/// The panel a `--workload` letter names.
pub fn panel(letter: &str) -> Result<Mix, String> {
    PANELS
        .iter()
        .find(|(l, _)| *l == letter)
        .map(|&(_, mix)| mix)
        .ok_or_else(|| format!("unknown --workload {letter:?} (expected a, b, c or u)"))
}

/// One panel's throughput per value size, in [`SystemKind::comparison`]
/// order.
type Panel = Vec<(usize, Vec<(SystemKind, f64)>)>;

pub fn run(scale: Scale, panels: &[Mix]) -> Report {
    println!("Figure 9: end-to-end throughput vs value size\n");
    use SystemKind::{Erda, Forca, Imm, Saw};
    let mut report = Report::new("fig9");
    for &mix in panels {
        let mops = run_panel(scale, mix, &mut report);
        match mix {
            Mix::UpdateOnly => headline(
                "write (update-only, 8 clients)",
                &mops,
                &[(Imm, true), (Saw, true), (Erda, false), (Forca, false)],
                "vs IMM +0.42..+2.79x; vs SAW +0.66..+2.85x; vs Erda +5..22%",
            ),
            Mix::C => headline(
                "read (read-only, 8 clients)",
                &mops,
                &[(Erda, false), (Forca, false), (Imm, false), (Saw, false)],
                "vs Erda 1.3-1.96x (beyond 64B); vs Forca 1.24-1.67x; ~= IMM/SAW (gap ~2%)",
            ),
            _ => {}
        }
    }
    println!("factor analysis: compare 'eFactory' vs 'eFactory w/o hr' rows (the hybrid-read contribution).");
    report
}

fn run_panel(scale: Scale, mix: Mix, report: &mut Report) -> Panel {
    println!("--- Figure 9 panel: {} (8 clients) ---", mix_tag(mix));
    let mut table = Table::new(vec!["system", "size", "Mops/s", "vs eFactory"]);
    let mut panel = Vec::new();
    for &size in &VALUE_SIZES {
        let mut results = Vec::new();
        for system in SystemKind::comparison() {
            let s = scale.spec(ExperimentSpec::paper(system, mix, size));
            let r = cluster::run(&s);
            report.add(
                &format!("{}/{}/{}", mix_tag(mix), system.label(), size_label(size)),
                &s,
                &r,
            );
            results.push((system, r.mops));
        }
        let ef = mops_of(&results, SystemKind::EFactory);
        for (system, mops) in &results {
            table.row(vec![
                system.label().to_string(),
                size_label(size),
                format!("{mops:.3}"),
                format!("{:.2}x", mops / ef),
            ]);
        }
        panel.push((size, results));
    }
    table.print();
    println!();
    panel
}

fn mops_of(results: &[(SystemKind, f64)], system: SystemKind) -> f64 {
    results
        .iter()
        .find(|(k, _)| *k == system)
        .map(|(_, m)| *m)
        .expect("every comparison system ran")
}

/// A headline-ratio table: eFactory's throughput over each of `others`
/// per value size, as an improvement ratio (eF/other − 1) where the flag
/// is set.
fn headline(title: &str, panel: &Panel, others: &[(SystemKind, bool)], paper: &str) {
    let mut header = vec!["size".to_string()];
    for &(system, improvement) in others {
        let minus = if improvement { " - 1" } else { "" };
        header.push(format!("eF/{}{minus}", system.label()));
    }
    let mut t = Table::new(header);
    for (size, results) in panel {
        let ef = mops_of(results, SystemKind::EFactory);
        let mut row = vec![size_label(*size)];
        for &(system, improvement) in others {
            let x = ef / mops_of(results, system);
            row.push(if improvement {
                format!("{:+.2}x", x - 1.0)
            } else {
                format!("{x:.2}x")
            });
        }
        t.row(row);
    }
    println!("headline ratios, {title}:");
    t.print();
    println!("paper: {paper}\n");
}
