//! Chaos demo: a lossy fabric plus silent media corruption, survived.
//!
//! Two failure classes the robustness layer covers, end to end:
//!
//! 1. **Lossy fabric** — a seeded [`FaultPlan`] makes every link drop,
//!    duplicate, and delay messages. Clients ride it out with deadline +
//!    deterministic-backoff retries; each logical RPC carries a request id
//!    so the server executes it at most once and replays the recorded
//!    reply for retries (exactly-once effects over an at-least-once
//!    fabric).
//! 2. **Bit-rot** — [`corrupt_range`](efactory_pmem::PmemPool::corrupt_range)
//!    flips bits in a value that is already durable *and* mirrored. The
//!    background CRC scrubber detects the mismatch on its next pass and
//!    repairs the object in place from the backup replica.
//!
//! Same seed ⇒ same faults ⇒ byte-identical run, every time.
//!
//! Run with: `cargo run --release --example chaos_demo`

use std::sync::Arc;

use efactory::client::ClientConfig;
use efactory::layout::{self, flags};
use efactory::log::StoreLayout;
use efactory::server::ServerConfig;
use efactory::store::{Store, StoreClient};
use efactory_rnic::{CostModel, Fabric, FaultPlan};
use efactory_sim as sim;
use efactory_sim::Sim;

fn main() {
    let seed = 13;
    let mut simulation = Sim::new(seed);
    let fabric = Fabric::new(CostModel::default());

    // 3% loss, 2% duplication, 2% delayed by ~3 µs — per message, per
    // link, drawn from a stream seeded independently of the workload.
    fabric.set_fault_plan(Some(FaultPlan::chaos(
        0.03,
        0.02,
        0.02,
        sim::micros(3),
        seed ^ 0xFA,
    )));

    // The backup gives the scrubber a repair source; the scrubber itself
    // is opt-in.
    let layout = StoreLayout::new(1024, 1 << 20, false);
    let cfg = ServerConfig {
        scrub_enabled: true,
        ..ServerConfig::default()
    };
    let server = Arc::new(Store::format(&fabric, "store", layout, cfg, 1, 1));

    let f = Arc::clone(&fabric);
    let server2 = Arc::clone(&server);
    simulation.spawn("demo", move || {
        server2.start();
        let client = StoreClient::connect(
            &f,
            &f.add_node("client"),
            &server2.routes(),
            ClientConfig::default(),
        )
        .expect("connect");

        // Phase 1: a write/read workload straight through the lossy
        // fabric. Every operation completes; the retry machinery absorbs
        // whatever the fault plan throws at it.
        let k = |i: u32| format!("chaos{i:04}").into_bytes();
        let v = |i: u32| format!("payload-{i:08}").into_bytes();
        for i in 0..64u32 {
            client.put(&k(i), &v(i)).expect("put");
            let got = client.get(&k(i)).expect("get").expect("hit");
            assert_eq!(got, v(i), "read-your-write through a lossy fabric");
        }
        let primary = server2.seat(0).server;
        let shared = primary.shared();
        let repl = server2.backup(0).expect("replicated").stats();
        let fs = f.stats();
        let ord = std::sync::atomic::Ordering::Relaxed;
        println!(
            "[{:>9} ns] 64 put+get pairs done over a lossy fabric:",
            sim::now()
        );
        println!(
            "            fabric dropped {} / duplicated {} / delayed {} messages",
            fs.fault_dropped.load(ord),
            fs.fault_duplicated.load(ord),
            fs.fault_delayed.load(ord),
        );
        println!(
            "            server executed {} puts, replayed {} deduped replies",
            shared.stats.puts.get(),
            shared.stats.dup_hits.get(),
        );

        // Phase 2: wait until the first object is durable and mirrored,
        // then rot its value on the primary.
        let deadline = sim::now() + sim::millis(100);
        while (shared.stats.bg_verified.get() < 1 || repl.applied_objects.get() < 1)
            && sim::now() < deadline
        {
            sim::sleep(sim::micros(50));
        }
        let obj_off = shared.logs[0].base();
        let value_off = obj_off + layout::HDR_LEN + layout::pad8(k(0).len());
        shared.pool.corrupt_range(value_off, 8, 0xA5);
        println!(
            "[{:>9} ns] flipped bits in the durable value at offset {value_off}",
            sim::now()
        );

        // The scrubber's next pass catches the CRC mismatch and repairs
        // the object from the backup's intact copy.
        let deadline = sim::now() + sim::millis(200);
        while shared.scrub.repaired.get() == 0 && sim::now() < deadline {
            sim::sleep(sim::micros(100));
        }
        assert_eq!(shared.scrub.repaired.get(), 1, "scrubber must repair");
        let got = client.get(&k(0)).expect("get").expect("repaired key");
        assert_eq!(got, v(0), "repaired value matches the original");
        let hdr = layout::ObjHeader::read_from(&shared.pool, obj_off);
        assert!(hdr.has(flags::VALID) && !hdr.has(flags::QUARANTINED));
        println!(
            "[{:>9} ns] scrubber repaired it from the backup (scanned {}, clean {}, repaired {})",
            sim::now(),
            shared.scrub.scanned.get(),
            shared.scrub.clean.get(),
            shared.scrub.repaired.get(),
        );
        server2.shutdown();
    });
    simulation.run().expect_ok();
    println!("done.");
}
