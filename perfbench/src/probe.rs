//! Host-time layer probes: each times one layer's public operation over
//! many reps with `Instant` and reports the median per-op nanoseconds of
//! several batches.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use efactory::hashtable::{find_in_window, fingerprint, HashTable, BUCKET_LEN, NPROBE};
use efactory_harness::ExperimentSpec;
use efactory_obs::json::{Arr, Obj};
use efactory_obs::{Subsystem, Tracer};
use efactory_pmem::PmemPool;
use efactory_rnic::{CostModel, Fabric};
use efactory_sim::{self as sim, ExecModel, Sim};
use efactory_ycsb::OpStream;

use crate::workloads::workload_config;

const BATCHES: usize = 9;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Median over batches of the per-rep time of `batch(reps)`, which runs
/// `reps` reps and returns the host nanoseconds they took.
fn per_rep_ns(reps: u64, mut batch: impl FnMut(u64) -> f64) -> f64 {
    batch(reps); // warm-up
    median((0..BATCHES).map(|_| batch(reps) / reps as f64).collect())
}

/// `per_rep_ns` for a plain closure timed around its loop.
fn per_call_ns(reps: u64, mut f: impl FnMut()) -> f64 {
    per_rep_ns(reps, |n| {
        let t = Instant::now();
        for _ in 0..n {
            f();
        }
        t.elapsed().as_nanos() as f64
    })
}

/// Host nanoseconds of `simu.run()`; the processes already spawned on
/// `simu` do the reps, and their few set-up events are noise next to them.
fn time_run(mut simu: Sim) -> f64 {
    let t = Instant::now();
    simu.run().expect_ok();
    t.elapsed().as_nanos() as f64
}

fn sim_sleep_ns(reps: u64) -> f64 {
    per_rep_ns(reps, |n| {
        let simu = Sim::with_exec(0, ExecModel::Fiber);
        simu.spawn("sleeper", move || {
            for _ in 0..n {
                sim::sleep(10);
            }
        });
        time_run(simu)
    })
}

fn sim_chan_round_trip_ns(reps: u64) -> f64 {
    per_rep_ns(reps, |n| {
        let simu = Sim::with_exec(0, ExecModel::Fiber);
        let (tx, rx) = simu.channel::<u64>();
        let (tx2, rx2) = simu.channel::<u64>();
        simu.spawn("echo", move || {
            while let Ok(v) = rx.recv() {
                if tx2.send(v, 100).is_err() {
                    break;
                }
            }
        });
        simu.spawn("pinger", move || {
            for i in 0..n {
                tx.send(i, 100).expect("echo alive");
                black_box(rx2.recv().expect("echo reply"));
            }
        });
        time_run(simu)
    })
}

/// One-sided verb cost: a client QP issuing `n` 256 B verbs at a
/// registered region on a listening server node.
fn rdma_256b_ns(reps: u64, write: bool) -> f64 {
    per_rep_ns(reps, |n| {
        let fabric = Fabric::new(CostModel::default());
        let server = fabric.add_node("server");
        let client = fabric.add_node("client");
        let pool = Arc::new(PmemPool::new(1 << 16));
        let mr = server.register_mr(&pool, 0, 1 << 16);
        let simu = Sim::with_exec(0, ExecModel::Fiber);
        let (f, s) = (Arc::clone(&fabric), server.clone());
        let listening = Arc::new(AtomicBool::new(true));
        let listening2 = Arc::clone(&listening);
        simu.spawn("server", move || {
            let _listener = s.listen(&f, true);
            while listening2.load(Ordering::Relaxed) {
                sim::sleep(sim::millis(1));
            }
        });
        simu.spawn("client", move || {
            sim::yield_now();
            let qp = fabric.connect(&client, &server).expect("server listening");
            for _ in 0..n {
                if write {
                    qp.rdma_write(&mr, 0, vec![0x5A; 256]).expect("rdma write");
                } else {
                    black_box(qp.rdma_read(&mr, 0, 256).expect("rdma read"));
                }
            }
            listening.store(false, Ordering::Relaxed);
        });
        time_run(simu)
    })
}

/// Collects probe results plus one host-time span per probe.
struct Ledger {
    origin: Instant,
    probes: Obj,
    spans: Arr,
}

impl Ledger {
    fn add(&mut self, name: &str, probe: impl FnOnce() -> f64) {
        let start = self.origin.elapsed().as_secs_f64();
        let ns = probe();
        let dur = self.origin.elapsed().as_secs_f64() - start;
        self.probes = std::mem::take(&mut self.probes).f64(name, ns, 3);
        let span = Obj::new()
            .str("name", name)
            .f64("start_s", start, 6)
            .f64("dur_s", dur, 6)
            .finish();
        self.spans = std::mem::take(&mut self.spans).raw(&span);
    }
}

/// Every layer probe: `{"probes": {name: ns}, "spans": [...]}`, span
/// starts in seconds since the probe process began.
pub fn all(spec: &ExperimentSpec) -> String {
    let mut l = Ledger {
        origin: Instant::now(),
        probes: Obj::new(),
        spans: Arr::new(),
    };
    l.add("checksum.crc32c_ns_per_kb", || {
        let kb = vec![0xA5u8; 1024];
        per_call_ns(20_000, || {
            black_box(efactory_checksum::crc32c(black_box(&kb)));
        })
    });
    l.add("pmem.write_persist_256b_ns", || {
        let pool = PmemPool::new(1 << 20);
        let value = vec![0x5Au8; 256];
        per_call_ns(50_000, || {
            pool.write(4096, black_box(&value));
            pool.persist(4096, value.len());
        })
    });

    let buckets = 16 * 1024;
    let ht_pool = PmemPool::new(HashTable::region_len(buckets));
    let ht = HashTable::new(0, buckets);
    for i in 0..buckets / 4 {
        ht.lookup_or_claim(&ht_pool, fingerprint(format!("key-{i}").as_bytes()))
            .expect("claim at 25% load");
    }
    let fp = fingerprint(b"key-100");
    l.add("hashtable.lookup_hit_ns", || {
        per_call_ns(200_000, || {
            black_box(ht.lookup(&ht_pool, black_box(fp)));
        })
    });
    l.add("hashtable.window_scan_ns", || {
        let mut window = vec![0u8; NPROBE * BUCKET_LEN];
        ht_pool.read(ht.entry_off(ht.home(fp)), &mut window);
        per_call_ns(200_000, || {
            black_box(find_in_window(black_box(&window), fp));
        })
    });

    l.add("obs.record_span_ns", || {
        // Ring already full, so every record also evicts one.
        let tracer = Tracer::new();
        for i in 0..efactory_obs::trace::DEFAULT_CAPACITY as u64 {
            tracer.record_span_at(Subsystem::Nic, "rdma_read", i, 1, &[("bytes", 256)]);
        }
        per_call_ns(100_000, || {
            tracer.record_span_at(Subsystem::Nic, "rdma_read", 7, 1, &[("bytes", 256)]);
        })
    });
    l.add("ycsb.next_op_ns", || {
        let mut stream = OpStream::new(workload_config(spec), spec.seed, 0);
        per_call_ns(50_000, || {
            black_box(stream.next_op());
        })
    });
    l.add("sim.sleep_event_ns", || sim_sleep_ns(100_000));
    l.add("sim.chan_round_trip_ns", || sim_chan_round_trip_ns(50_000));
    l.add("rnic.rdma_read_256b_ns", || rdma_256b_ns(20_000, false));
    l.add("rnic.rdma_write_256b_ns", || rdma_256b_ns(20_000, true));

    Obj::new()
        .raw("probes", &l.probes.finish())
        .raw("spans", &l.spans.finish())
        .finish()
}
