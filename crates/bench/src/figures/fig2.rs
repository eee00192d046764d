//! **Figure 2** — "GET latency breakdown": for Erda and Forca, how much of
//! the read latency is CRC verification vs everything else (network +
//! server + read), across value sizes.
//!
//! The paper's motivation experiment reads freshly written objects (that is
//! when verification actually runs: Erda verifies on the client every time;
//! Forca self-verifies on first read). This driver therefore measures the
//! GET of a PUT-then-GET pair on a single client.
//!
//! Paper anchor: verifying a 4 KB object costs ≈4.4 µs — about 45 % of
//! Erda's and 35 % of Forca's read latency.

use std::sync::{Arc, Mutex};

use efactory_baselines::{baseline_layout, BaselineClient, BaselineServer};
use efactory_harness::{LatencyStats, Report, SystemKind, Table};
use efactory_rnic::{CostModel, Fabric};
use efactory_sim as sim;
use efactory_sim::{Nanos, Sim};
use efactory_ycsb::{make_key, make_value};

use crate::{size_label, Scale, VALUE_SIZES};

/// Measure GET-after-PUT latency for one system at one value size.
fn read_after_write(system: SystemKind, value_len: usize, ops: usize) -> LatencyStats {
    let kind = system.baseline().expect("Figure 2 measures baselines");
    let mut simu = Sim::new(7);
    let fabric = Fabric::new(CostModel::default());
    let server_node = fabric.add_node("server");
    let lat: Arc<Mutex<Vec<Nanos>>> = Arc::default();
    let lat2 = Arc::clone(&lat);
    let f2 = Arc::clone(&fabric);
    // Pool must fit `ops` distinct objects.
    let layout = baseline_layout(
        (ops * 4).max(1024),
        (ops + 8) * efactory::layout::object_size(32, value_len) * 2,
    );
    simu.spawn("main", move || {
        let cnode = f2.add_node("client");
        let mut samples = Vec::with_capacity(ops);
        let srv = BaselineServer::format(kind, &f2, &server_node, layout);
        srv.start(&f2);
        let c = BaselineClient::connect(&f2, &cnode, &srv).unwrap();
        for i in 0..ops {
            let key = make_key(32, i as u64);
            c.put(&key, &make_value(value_len, i as u64, 1)).unwrap();
            let t0 = sim::now();
            c.get(&key).unwrap().expect("just written");
            samples.push(sim::now() - t0);
        }
        srv.shutdown();
        *lat2.lock().unwrap() = samples;
    });
    simu.run().expect_ok();
    let mut samples = lat.lock().unwrap().clone();
    LatencyStats::from_samples(&mut samples)
}

pub fn run(scale: Scale) -> Report {
    println!("Figure 2: GET latency breakdown (read-after-write, single client)\n");
    let mut report = Report::new("fig2");
    let cost = CostModel::default();
    let ops = scale.ops(400);
    let mut table = Table::new(vec![
        "system",
        "size",
        "total p50 (us)",
        "crc (us)",
        "other (us)",
        "crc share",
    ]);
    for system in [SystemKind::Erda, SystemKind::Forca] {
        for &size in &VALUE_SIZES {
            let stats = read_after_write(system, size, ops);
            let label = system.label();
            report.add_latency(&format!("{label}/{}", size_label(size)), &stats);
            let total = stats.p50_us();
            let crc = cost.crc(size) as f64 / 1000.0;
            table.row(vec![
                label.to_string(),
                size_label(size),
                format!("{total:.2}"),
                format!("{crc:.2}"),
                format!("{:.2}", total - crc),
                format!("{:.0}%", crc / total * 100.0),
            ]);
        }
    }
    table.print();
    println!();
    println!("expected shape (paper): at 4KB, CRC ~= 4.4us; ~45% of Erda's and ~35% of Forca's read latency");
    report
}
