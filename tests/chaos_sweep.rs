//! Chaos sweep: lossy-fabric + media-fault injection, end to end.
//!
//! The deterministic fault layer lets these tests subject a full store to
//! the failure classes real deployments see — message loss, duplication,
//! delay, network partitions, node crashes, and NVM bit-rot — and then
//! make *exact* assertions, because the same seed replays the same chaos
//! byte-for-byte:
//!
//! * **Convergence** — a workload run over a lossy fabric ends in exactly
//!   the key→value state the operation list dictates, identical to a
//!   fault-free run of the same list.
//! * **Exactly-once** — every retried PUT/DEL was applied once: the
//!   server-side `puts`/`dels` counters equal the number of *logical*
//!   operations issued, no matter how many times the fabric forced a
//!   resend (the dedup table absorbs the extras).
//! * **Repair / quarantine** — bit-rot on durable objects is repaired
//!   from the backup replica when one exists and quarantined (served from
//!   the previous version) otherwise.
//! * **Replay** — the same seed reproduces the identical final state and
//!   counter snapshot.
//!
//! The default lanes keep the fault rates modest so every CI run exercises
//! them; `EF_TEST_CHAOS=1` unlocks a heavier plan matrix.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use efactory::client::{Client, ClientConfig};
use efactory::layout::{self, flags};
use efactory::log::StoreLayout;
use efactory::server::{Server, ServerConfig};
use efactory::store::{Store, StoreClient};
use efactory_pmem::CrashSpec;
use efactory_rnic::{CostModel, Fabric, FaultPlan};
use efactory_sim as sim;
use efactory_sim::Sim;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One logical operation of the scripted workload. The script is generated
/// up front from the seed alone, so the *intended* final state is known
/// independently of how the fabric mangles the run.
#[derive(Debug, Clone, Copy)]
enum ChaosOp {
    Put { key: usize, tag: u32 },
    Del { key: usize },
    Get { key: usize },
}

/// Fixed-width key for client `cid`, key index `k` (uniform object size).
fn key(cid: usize, k: usize) -> Vec<u8> {
    format!("ck{cid:02}-{k:03}").into_bytes()
}

/// Deterministic value for one write.
fn value(cid: usize, k: usize, tag: u32) -> Vec<u8> {
    let mut v = format!("v{cid}-{k}-{tag}-").into_bytes();
    while v.len() < 48 {
        v.push(b'0' + ((v.len() as u32 + tag) % 10) as u8);
    }
    v
}

/// Generate each client's op list (disjoint key ranges — client `cid` only
/// touches `key(cid, _)`, so the per-key last writer is script-defined).
fn gen_scripts(clients: usize, ops: usize, keys: usize, seed: u64) -> Vec<Vec<ChaosOp>> {
    (0..clients)
        .map(|cid| {
            let mut rng = StdRng::seed_from_u64(seed ^ ((cid as u64 + 1) << 32));
            let mut tag = 0u32;
            (0..ops)
                .map(|_| {
                    let k = rng.gen_range(0..keys);
                    let roll: f64 = rng.gen();
                    if roll < 0.55 {
                        tag += 1;
                        ChaosOp::Put { key: k, tag }
                    } else if roll < 0.70 {
                        ChaosOp::Del { key: k }
                    } else {
                        ChaosOp::Get { key: k }
                    }
                })
                .collect()
        })
        .collect()
}

/// The key→value state the scripts dictate (keys absent after a last DEL).
fn expected_state(scripts: &[Vec<ChaosOp>]) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut map = BTreeMap::new();
    for (cid, script) in scripts.iter().enumerate() {
        for op in script {
            match *op {
                ChaosOp::Put { key: k, tag } => {
                    map.insert(key(cid, k), value(cid, k, tag));
                }
                ChaosOp::Del { key: k } => {
                    map.remove(&key(cid, k));
                }
                ChaosOp::Get { .. } => {}
            }
        }
    }
    map
}

/// Count the logical PUTs/DELs a script set issues.
fn logical_writes(scripts: &[Vec<ChaosOp>]) -> (u64, u64) {
    let mut puts = 0;
    let mut dels = 0;
    for s in scripts {
        for op in s {
            match op {
                ChaosOp::Put { .. } => puts += 1,
                ChaosOp::Del { .. } => dels += 1,
                ChaosOp::Get { .. } => {}
            }
        }
    }
    (puts, dels)
}

/// What one chaos run produced, for cross-run comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ChaosOutcome {
    final_state: BTreeMap<Vec<u8>, Vec<u8>>,
    server_puts: u64,
    server_dels: u64,
    dup_hits: u64,
    rpc_retries: u64,
    /// One-sided verb retries (distinct from RPC resends).
    op_retries: u64,
    /// PUTs the clients re-issued as fresh logical ops after the verifier
    /// timed out their first allocation (each adds one to `server_puts`).
    put_reissues: u64,
    fault_dropped: u64,
    fault_duplicated: u64,
    fault_delayed: u64,
    /// Cleaning passes completed (cleaning lanes only; 0 otherwise).
    cleanings: u64,
    /// Objects quarantined by the scrubber or the relocator's CRC check.
    quarantined: u64,
    /// Post-heal read of the out-of-script bit-rotted key (rot lanes only).
    rot_value: Option<Vec<u8>>,
}

/// Optional hazards layered onto the scripted chaos run.
#[derive(Clone, Copy, Default)]
struct LaneCfg {
    /// Dual-pool layout with a near-zero clean threshold: cleaning passes
    /// run back to back through the workload, and clients retry `Busy`
    /// answers (cleaner backpressure) as the same logical op.
    clean: bool,
    /// Enable the scrubber and bit-rot a durable version of a dedicated
    /// out-of-script key before the workload starts.
    rot: bool,
}

/// Key/values for the bit-rot satellite (outside every script's keyspace).
fn rot_key() -> Vec<u8> {
    b"rot-key0".to_vec()
}

fn rot_val(gen: u32) -> Vec<u8> {
    let mut v = format!("rot-gen-{gen}-").into_bytes();
    while v.len() < 32 {
        v.push(b'.');
    }
    v
}

const CLIENTS: usize = 3;
const OPS: usize = 50;
const KEYS: usize = 8;

/// Run the scripted workload on a standalone eFactory store under `plan`,
/// then read the whole keyspace back over a clean fabric.
fn run_chaos(seed: u64, plan: Option<FaultPlan>) -> ChaosOutcome {
    run_chaos_lane(seed, plan, LaneCfg::default())
}

fn run_chaos_lane(seed: u64, plan: Option<FaultPlan>, lane: LaneCfg) -> ChaosOutcome {
    let scripts = gen_scripts(CLIENTS, OPS, KEYS, seed);
    let mut simu = Sim::new(seed);
    let fabric = Fabric::new(CostModel::default());
    // With the rot satellite the plan is applied *after* the rot key's two
    // generations are preloaded, so their pool offsets stay script-exact
    // (a chaos-delayed preload could re-issue and shift the log head).
    if !lane.rot {
        if let Some(p) = plan {
            fabric.set_fault_plan(Some(p));
        }
    }
    let server_node = fabric.add_node("server");
    let layout = if lane.clean {
        StoreLayout::new(2048, 256 * 1024, true)
    } else {
        StoreLayout::new(2048, 1 << 20, false)
    };
    let cfg = ServerConfig {
        clean_enabled: lane.clean,
        clean_threshold: if lane.clean { 0.01 } else { 0.7 },
        scrub_enabled: lane.rot,
        ..ServerConfig::default()
    };
    let server = Arc::new(Server::format(&fabric, &server_node, layout, cfg));

    let out: Arc<Mutex<Option<ChaosOutcome>>> = Arc::default();
    let out2 = Arc::clone(&out);
    let f = Arc::clone(&fabric);
    let server2 = Arc::clone(&server);
    let scripts2 = scripts.clone();
    simu.spawn("main", move || {
        server2.start(&f);
        let desc = server2.desc();
        if lane.rot {
            // Two durable generations of a dedicated key land as the first
            // two log objects; rot the newer one's value bytes, then arm
            // the fault plan. The scrubber (or the relocator's CRC check,
            // whichever gets there first) must quarantine it and the store
            // must fall back to the intact older generation — all while
            // cleaning passes churn the pool underneath.
            let setup_node = f.add_node("rot-setup");
            let setup =
                Client::connect(&f, &setup_node, &server_node, desc, ClientConfig::default())
                    .expect("rot setup connect");
            for gen in 0..2u32 {
                setup.put(&rot_key(), &rot_val(gen)).expect("rot preload");
                // Read-back pins the version durable (selective durability).
                assert!(setup.get(&rot_key()).expect("rot readback").is_some());
            }
            let shared = server2.shared();
            // object_size(klen 8, vlen 32) = 80; value bytes start at +48.
            let gen1_val = shared.logs[0].base() + 80 + 48;
            shared.pool.corrupt_range(gen1_val, 8, 0x5A);
            if let Some(p) = plan {
                f.set_fault_plan(Some(p));
            }
        }
        let retries_acc = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let op_retries_acc = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let reissues_acc = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut handles = Vec::new();
        for (cid, script) in scripts2.iter().cloned().enumerate() {
            let f2 = Arc::clone(&f);
            let sn = server_node.clone();
            let retries_acc = Arc::clone(&retries_acc);
            let op_retries_acc = Arc::clone(&op_retries_acc);
            let reissues_acc = Arc::clone(&reissues_acc);
            handles.push(sim::spawn(&format!("chaos-client-{cid}"), move || {
                let node = f2.add_node(&format!("cnode-{cid}"));
                let c = Client::connect(&f2, &node, &sn, desc, ClientConfig::default())
                    .expect("connect");
                // Cleaning lanes answer mid-clean writes with retryable
                // `Busy` backpressure; re-issue until the pass lets go.
                let busy = |r: &Result<(), efactory::protocol::StoreError>| {
                    matches!(
                        r,
                        Err(efactory::protocol::StoreError::Status(
                            efactory::protocol::Status::Busy
                        ))
                    )
                };
                for op in script {
                    match op {
                        ChaosOp::Put { key: k, tag } => loop {
                            let r = c.put(&key(cid, k), &value(cid, k, tag));
                            if lane.clean && busy(&r) {
                                sim::sleep(sim::micros(2));
                                continue;
                            }
                            r.expect("chaos put");
                            break;
                        },
                        ChaosOp::Del { key: k } => loop {
                            let r = c.del(&key(cid, k));
                            if lane.clean && busy(&r) {
                                sim::sleep(sim::micros(2));
                                continue;
                            }
                            r.expect("chaos del");
                            break;
                        },
                        ChaosOp::Get { key: k } => {
                            // The read may see any not-yet-overwritten
                            // version; only transport success is asserted.
                            c.get(&key(cid, k)).expect("chaos get");
                        }
                    }
                }
                use std::sync::atomic::Ordering;
                retries_acc.fetch_add(c.stats().rpc_retries.get(), Ordering::Relaxed);
                op_retries_acc.fetch_add(c.stats().op_retries.get(), Ordering::Relaxed);
                reissues_acc.fetch_add(c.stats().put_reissues.get(), Ordering::Relaxed);
            }));
        }
        for h in &handles {
            h.join();
        }
        // Heal the fabric for the verification sweep: the workload is
        // over; what remains must be readable without interference.
        f.set_fault_plan(None);
        let checker_node = f.add_node("checker");
        let checker = Client::connect(
            &f,
            &checker_node,
            &server_node,
            desc,
            ClientConfig::default(),
        )
        .expect("checker connect");
        let mut final_state = BTreeMap::new();
        for cid in 0..CLIENTS {
            for k in 0..KEYS {
                if let Some(v) = checker.get(&key(cid, k)).expect("verify get") {
                    final_state.insert(key(cid, k), v);
                }
            }
        }
        let rot_value = if lane.rot {
            checker.get(&rot_key()).expect("rot verify get")
        } else {
            None
        };
        let stats = &server2.shared().stats;
        let fs = f.stats();
        *out2.lock().unwrap() = Some(ChaosOutcome {
            final_state,
            server_puts: stats.puts.get(),
            server_dels: stats.dels.get(),
            dup_hits: stats.dup_hits.get(),
            rpc_retries: retries_acc.load(std::sync::atomic::Ordering::Relaxed),
            op_retries: op_retries_acc.load(std::sync::atomic::Ordering::Relaxed),
            put_reissues: reissues_acc.load(std::sync::atomic::Ordering::Relaxed),
            fault_dropped: fs.fault_dropped.load(std::sync::atomic::Ordering::Relaxed),
            fault_duplicated: fs
                .fault_duplicated
                .load(std::sync::atomic::Ordering::Relaxed),
            fault_delayed: fs.fault_delayed.load(std::sync::atomic::Ordering::Relaxed),
            cleanings: stats.cleanings.get(),
            quarantined: server2.shared().scrub.quarantined.get(),
            rot_value,
        });
        server2.shutdown();
    });
    simu.run().expect_ok();
    let o = out.lock().unwrap().take().expect("outcome collected");
    o
}

/// Convergence + exactly-once under the default chaos plan. The faulted
/// run must (a) suffer real faults, (b) end in the script-dictated state —
/// identical to the fault-free run — and (c) have executed each logical
/// PUT/DEL exactly once despite the retries.
#[test]
fn lossy_fabric_converges_and_applies_writes_exactly_once() {
    let seed = 0xC4A0;
    let scripts = gen_scripts(CLIENTS, OPS, KEYS, seed);
    let expected = expected_state(&scripts);
    let (puts, dels) = logical_writes(&scripts);

    let plan = FaultPlan::chaos(0.04, 0.03, 0.02, sim::micros(3), seed ^ 0xFA);
    let faulted = run_chaos(seed, Some(plan));
    let clean = run_chaos(seed, None);

    assert!(
        faulted.fault_dropped > 0 && faulted.fault_duplicated > 0,
        "chaos plan must actually fire: {faulted:?}"
    );
    assert_eq!(faulted.final_state, expected, "faulted run diverged");
    assert_eq!(clean.final_state, expected, "fault-free run diverged");
    // Exactly-once, modulo explicit re-issues: a PUT whose first allocation
    // the verifier timed out (reply lost long enough) is re-executed as a
    // *new* logical request — visible in `put_reissues` and adding exactly
    // one server-side execution each. Everything else must dedup.
    assert_eq!(
        faulted.server_puts,
        puts + faulted.put_reissues,
        "retried PUTs must be deduplicated (exactly-once): {faulted:?}"
    );
    assert_eq!(
        faulted.server_dels, dels,
        "retried DELs must be deduplicated (exactly-once)"
    );
    assert_eq!(clean.server_puts, puts);
    assert_eq!(clean.server_dels, dels);
    assert_eq!(clean.put_reissues, 0, "clean fabric must not re-issue");
    // The exactly-once guarantee had to do real work: at least one retry
    // hit the dedup table (a reply was lost after execution).
    assert!(
        faulted.dup_hits > 0,
        "expected at least one deduplicated retry: {faulted:?}"
    );
    assert_eq!(clean.dup_hits, 0, "clean fabric must not need dedup");
}

/// Identical seeds replay identical chaos, byte for byte: the entire
/// outcome (final KV state + every counter sampled) must match.
#[test]
fn chaos_replay_is_deterministic() {
    let plan = FaultPlan::chaos(0.05, 0.02, 0.03, sim::micros(2), 99);
    let a = run_chaos(7, Some(plan));
    let b = run_chaos(7, Some(plan));
    assert_eq!(a, b, "same seed, same plan must replay identically");
}

/// Regression for the silent-lost-update hazard: a fault-injected *delay*
/// can hold the one-sided value write in flight past the verifier's
/// timeout (200 µs at defaults) without a single RPC retry — the reply
/// legs stay inside the 1 ms deadline, so the old "re-check only after a
/// retried RPC" guard never fired, the write landed in a version the
/// verifier had already invalidated, and the PUT reported success while
/// the update was gone. The `VERIFY_GRACE` elapsed-time guard must catch
/// it: every such PUT is re-issued and the run still converges.
#[test]
fn delayed_value_write_past_verifier_timeout_is_reissued_not_lost() {
    let seed = 0xDE1A;
    let scripts = gen_scripts(CLIENTS, OPS, KEYS, seed);
    let expected = expected_state(&scripts);
    let (puts, dels) = logical_writes(&scripts);

    // Delay-only plan: no drops, no dups. 300 µs crosses the verifier's
    // 200 µs timeout, yet request + reply each delayed still fit the 1 ms
    // RPC deadline — the RPC layer must see nothing to retry.
    let plan = FaultPlan::chaos(0.0, 0.0, 0.25, sim::micros(300), seed ^ 0xD);
    let o = run_chaos(seed, Some(plan));

    assert!(o.fault_delayed > 0, "delay plan never fired: {o:?}");
    assert_eq!(
        o.rpc_retries, 0,
        "nothing dropped: the RPC layer must not have retried: {o:?}"
    );
    assert_eq!(o.dup_hits, 0, "no retries, so nothing to dedup");
    assert!(
        o.put_reissues > 0,
        "delays must have pushed some value write past the verifier \
         timeout — the elapsed-time guard never fired: {o:?}"
    );
    assert_eq!(o.final_state, expected, "a delayed PUT was silently lost");
    assert_eq!(o.server_puts, puts + o.put_reissues, "dup PUT: {o:?}");
    assert_eq!(o.server_dels, dels, "dup DEL");
}

/// Heavier plan matrix, gated on `EF_TEST_CHAOS=<seed>` (unset, `0`, or
/// non-numeric skips). The value seeds both the fault plans and the
/// workload scripts, so the CI chaos lanes — which run this under several
/// distinct seeds — exercise the determinism and exactly-once claims on
/// genuinely different plans, not one hard-coded drop pattern.
/// `EF_TEST_CHAOS=1` reproduces the original single-lane matrix.
#[test]
fn chaos_plan_matrix() {
    let chaos_seed: u64 = match std::env::var("EF_TEST_CHAOS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        Some(s) if s > 0 => s,
        _ => return,
    };
    // Spread the lane seed so plan seeds stay distinct and non-zero for
    // every lane value (including the legacy `1`, which maps to 1,2,3,4).
    let plan_seed = |i: u64| {
        (chaos_seed - 1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i)
    };
    let plans = [
        FaultPlan::lossy(0.05, plan_seed(1)),
        FaultPlan::chaos(0.0, 0.08, 0.0, 0, plan_seed(2)),
        FaultPlan::chaos(0.0, 0.0, 0.10, sim::micros(20), plan_seed(3)),
        FaultPlan::chaos(0.08, 0.05, 0.05, sim::micros(10), plan_seed(4)),
    ];
    for (i, plan) in plans.into_iter().enumerate() {
        for seed in [
            (chaos_seed - 1).wrapping_mul(64) + 11,
            (chaos_seed - 1).wrapping_mul(64) + 23,
        ] {
            let scripts = gen_scripts(CLIENTS, OPS, KEYS, seed);
            let expected = expected_state(&scripts);
            let (puts, dels) = logical_writes(&scripts);
            let o = run_chaos(seed, Some(plan));
            assert_eq!(o.final_state, expected, "plan {i} seed {seed} diverged");
            assert_eq!(
                o.server_puts,
                puts + o.put_reissues,
                "plan {i} seed {seed}: dup PUT"
            );
            assert_eq!(o.server_dels, dels, "plan {i} seed {seed}: dup DEL");
        }
    }
}

/// Cleaning lane: the full drop/dup/delay chaos plan, a bit-rotted durable
/// version with the scrubber armed, and log-cleaning passes running back
/// to back through the workload. Mid-clean writes ride out `Busy`
/// backpressure; the rotted version is quarantined (by the scrubber or the
/// relocator's CRC check) with fallback to the intact older generation;
/// the run still converges to the script-dictated state and replays
/// deterministically. Counter-exactness is asserted by the non-cleaning
/// lanes — Busy-rejected attempts legitimately bump the server counters.
#[test]
fn cleaning_chaos_lane_converges_with_scrub_and_rot() {
    let seed = 0xC1EA;
    let scripts = gen_scripts(CLIENTS, OPS, KEYS, seed);
    let expected = expected_state(&scripts);
    let plan = FaultPlan::chaos(0.04, 0.03, 0.02, sim::micros(3), seed ^ 0xFA);
    let lane = LaneCfg {
        clean: true,
        rot: true,
    };
    let a = run_chaos_lane(seed, Some(plan), lane);
    assert!(
        a.fault_dropped > 0 && a.fault_duplicated > 0,
        "chaos plan must actually fire: {a:?}"
    );
    assert!(
        a.cleanings > 0,
        "cleaner never ran during the chaos workload"
    );
    assert!(
        a.quarantined >= 1,
        "bit-rotted version was never quarantined"
    );
    assert_eq!(
        a.rot_value.as_deref(),
        Some(&rot_val(0)[..]),
        "rotted key must fall back to the intact older generation"
    );
    assert_eq!(a.final_state, expected, "cleaning+chaos run diverged");
    let b = run_chaos_lane(seed, Some(plan), lane);
    assert_eq!(a, b, "cleaning chaos lane must replay identically");
}

/// Satellite: a transient partition mid-workload, healed within the
/// client's retry budget, costs latency but neither loses nor duplicates
/// operations.
#[test]
fn heal_link_mid_workload_rides_out_partition() {
    let mut simu = Sim::new(41);
    let fabric = Fabric::new(CostModel::default());
    let server_node = fabric.add_node("server");
    let layout = StoreLayout::new(1024, 1 << 20, false);
    let server = Arc::new(Server::format(
        &fabric,
        &server_node,
        layout,
        ServerConfig {
            clean_enabled: false,
            ..ServerConfig::default()
        },
    ));
    const N: usize = 120;

    let f = Arc::clone(&fabric);
    let server2 = Arc::clone(&server);
    let retries: Arc<Mutex<u64>> = Arc::default();
    let retries2 = Arc::clone(&retries);
    simu.spawn("main", move || {
        server2.start(&f);
        let desc = server2.desc();
        let cnode = f.add_node("cnode");
        let c = Client::connect(&f, &cnode, &server_node, desc, ClientConfig::default())
            .expect("connect");
        // Partition the client↔server link shortly into the workload and
        // heal it well inside the ~6 ms RPC retry budget.
        let f2 = Arc::clone(&f);
        let sn = server_node.clone();
        let cn = cnode.clone();
        let controller = sim::spawn("partitioner", move || {
            sim::sleep(sim::micros(120));
            f2.fail_link(&cn, &sn);
            sim::sleep(sim::millis(2));
            f2.heal_link(&cn, &sn);
        });
        for i in 0..N {
            let k = key(0, i % KEYS);
            c.put(&k, &value(0, i % KEYS, i as u32)).expect("put");
            let got = c.get(&k).expect("get").expect("key just written");
            assert_eq!(got, value(0, i % KEYS, i as u32), "read own write");
        }
        controller.join();
        *retries2.lock().unwrap() = c.stats().rpc_retries.get();
        server2.shutdown();
    });
    simu.run().expect_ok();

    // The partition must actually have been felt…
    assert!(
        *retries.lock().unwrap() > 0,
        "workload never hit the partition — timing drifted"
    );
    // …yet every logical PUT executed exactly once: any resend the
    // partition forced was either swallowed (never arrived) or absorbed
    // by the dedup table, never re-executed.
    assert_eq!(server.shared().stats.puts.get(), N as u64);
}

/// Media fault, standalone store: the scrubber quarantines a bit-rotted
/// durable version and reads fall back to the previous intact one.
#[test]
fn bit_rot_standalone_quarantines_and_serves_previous_version() {
    let mut simu = Sim::new(5);
    let fabric = Fabric::new(CostModel::default());
    let server_node = fabric.add_node("server");
    let store_layout = StoreLayout::new(256, 256 * 1024, false);
    let server = Arc::new(Server::format(
        &fabric,
        &server_node,
        store_layout,
        ServerConfig {
            clean_enabled: false,
            scrub_enabled: true,
            ..ServerConfig::default()
        },
    ));

    let f = Arc::clone(&fabric);
    let server2 = Arc::clone(&server);
    simu.spawn("main", move || {
        server2.start(&f);
        let desc = server2.desc();
        let cnode = f.add_node("cnode");
        let c = Client::connect(&f, &cnode, &server_node, desc, ClientConfig::default())
            .expect("connect");
        let k = b"rot-key-".to_vec();
        let v1 = vec![0x11u8; 64];
        let v2 = vec![0x22u8; 64];
        c.put(&k, &v1).expect("put v1");
        c.put(&k, &v2).expect("put v2");
        // Both versions durable before injecting rot (the scrubber only
        // polices DURABLE objects; fresh ones belong to the verifier).
        let shared = server2.shared();
        let deadline = sim::now() + sim::millis(100);
        while shared.stats.bg_verified.get() < 2 && sim::now() < deadline {
            sim::sleep(sim::micros(50));
        }
        assert!(
            shared.stats.bg_verified.get() >= 2,
            "versions never verified"
        );

        // v1 sits at the log base, v2 right after it (append order).
        let base = shared.logs[0].base();
        let obj_size = layout::object_size(k.len(), v1.len());
        let v2_off = base + obj_size;
        let v2_value_off = v2_off + layout::HDR_LEN + layout::pad8(k.len());
        shared.pool.corrupt_range(v2_value_off, 8, 0x5A);

        let deadline = sim::now() + sim::millis(200);
        while shared.scrub.quarantined.get() == 0 && sim::now() < deadline {
            sim::sleep(sim::micros(100));
        }
        assert_eq!(shared.scrub.quarantined.get(), 1, "rot never quarantined");
        assert_eq!(shared.scrub.repaired.get(), 0, "standalone cannot repair");
        let hdr = layout::ObjHeader::read_from(&shared.pool, v2_off);
        assert!(hdr.has(flags::QUARANTINED) && !hdr.has(flags::VALID));

        // Reads fall through to the previous intact version.
        let got = c.get(&k).expect("get").expect("previous version survives");
        assert_eq!(got, v1, "must serve the intact previous version");
        server2.shutdown();
    });
    simu.run().expect_ok();
}

/// Worst-case media fault, standalone: rot lands in an object *header*,
/// so the scrubber cannot even size the object. The walk must not die at
/// the corpse — it quarantines it in place, resumes at the next boundary
/// reachable through the hash index (accounting the jump under
/// `scrub.skipped_bytes`), and keeps completing passes so every object
/// past the rot stays under scrub coverage.
#[test]
fn header_rot_standalone_skips_corpse_and_keeps_scrubbing() {
    let mut simu = Sim::new(9);
    let fabric = Fabric::new(CostModel::default());
    let server_node = fabric.add_node("server");
    let store_layout = StoreLayout::new(256, 256 * 1024, false);
    let server = Arc::new(Server::format(
        &fabric,
        &server_node,
        store_layout,
        ServerConfig {
            clean_enabled: false,
            scrub_enabled: true,
            ..ServerConfig::default()
        },
    ));

    let f = Arc::clone(&fabric);
    let server2 = Arc::clone(&server);
    simu.spawn("main", move || {
        server2.start(&f);
        let desc = server2.desc();
        let cnode = f.add_node("cnode");
        let c = Client::connect(&f, &cnode, &server_node, desc, ClientConfig::default())
            .expect("connect");
        // Three distinct keys → three same-size objects, appended in order.
        let keys: Vec<Vec<u8>> = (0..3).map(|i| format!("hdr-rot{i}").into_bytes()).collect();
        let v = vec![0x44u8; 64];
        for k in &keys {
            c.put(k, &v).expect("put");
        }
        let shared = server2.shared();
        let deadline = sim::now() + sim::millis(100);
        while shared.stats.bg_verified.get() < 3 && sim::now() < deadline {
            sim::sleep(sim::micros(50));
        }
        assert!(shared.stats.bg_verified.get() >= 3, "never verified");

        // Rot the *middle* object's klen field into an unsizable value
        // (0x0008 → 0xFFF7, far past MAX_KLEN).
        let base = shared.logs[0].base();
        let obj_size = layout::object_size(keys[0].len(), v.len());
        let mid_off = base + obj_size;
        shared.pool.corrupt_range(mid_off, 2, 0xFF);

        let deadline = sim::now() + sim::millis(200);
        while shared.scrub.quarantined.get() == 0 && sim::now() < deadline {
            sim::sleep(sim::micros(100));
        }
        assert_eq!(
            shared.scrub.quarantined.get(),
            1,
            "corpse never quarantined"
        );
        // The jump skipped exactly the unsizable object: the next hash-
        // reachable boundary is the third object, one `obj_size` later.
        assert_eq!(
            shared.scrub.skipped_bytes.get(),
            obj_size as u64,
            "resume point must be the next index-reachable boundary"
        );
        let hdr0 = layout::ObjHeader::read_from(&shared.pool, mid_off);
        assert!(hdr0.has(flags::QUARANTINED) && !hdr0.has(flags::VALID));

        // The scrubber must stay alive: later passes still walk the
        // objects around the corpse (clean keeps counting) and complete.
        let passes0 = shared.scrub.passes.get();
        let clean0 = shared.scrub.clean.get();
        sim::sleep(sim::millis(1));
        assert!(
            shared.scrub.passes.get() > passes0,
            "scrubber died at the corpse: no pass completed after the rot"
        );
        assert!(
            shared.scrub.clean.get() > clean0,
            "objects past the corpse are no longer being scrubbed"
        );

        // Untouched neighbours stay servable.
        assert_eq!(c.get(&keys[0]).expect("get k0"), Some(v.clone()));
        assert_eq!(c.get(&keys[2]).expect("get k2"), Some(v.clone()));
        server2.shutdown();
    });
    simu.run().expect_ok();
}

/// Media fault, replicated store: the scrubber repairs the rotted bytes
/// from the backup in place — the newest version stays servable and
/// nothing is quarantined.
#[test]
fn bit_rot_replicated_repairs_from_backup() {
    let mut simu = Sim::new(6);
    let fabric = Fabric::new(CostModel::default());
    let server_node = fabric.add_node("server");
    let store_layout = StoreLayout::new(256, 256 * 1024, false);
    let server = Arc::new(Store::format_on(
        &fabric,
        &server_node,
        store_layout,
        ServerConfig {
            scrub_enabled: true,
            ..ServerConfig::default()
        },
        1,
    ));

    let f = Arc::clone(&fabric);
    let server2 = Arc::clone(&server);
    simu.spawn("main", move || {
        server2.start(&f);
        let cnode = f.add_node("cnode");
        let c = StoreClient::connect(&f, &cnode, &server2.routes(), ClientConfig::default())
            .expect("connect");
        let k = b"rot-key-".to_vec();
        let v = vec![0x33u8; 64];
        c.put(&k, &v).expect("put");
        // Durable *and* mirrored before the rot lands.
        let shared = server2.shard(0).server().shared();
        let repl = server2.shard(0).backup().expect("replicated").stats();
        let deadline = sim::now() + sim::millis(100);
        while (shared.stats.bg_verified.get() < 1 || repl.applied_objects.get() < 1)
            && sim::now() < deadline
        {
            sim::sleep(sim::micros(50));
        }
        assert!(repl.applied_objects.get() >= 1, "never mirrored");

        let obj_off = shared.logs[0].base();
        let value_off = obj_off + layout::HDR_LEN + layout::pad8(k.len());
        shared.pool.corrupt_range(value_off, 8, 0xA5);

        let deadline = sim::now() + sim::millis(200);
        while shared.scrub.repaired.get() == 0 && sim::now() < deadline {
            sim::sleep(sim::micros(100));
        }
        assert_eq!(shared.scrub.repaired.get(), 1, "rot never repaired");
        assert_eq!(shared.scrub.quarantined.get(), 0, "repair, not quarantine");

        // The same (newest) version is intact again.
        let got = c.get(&k).expect("get").expect("repaired key readable");
        assert_eq!(got, v, "repaired value must match the original");
        let hdr = layout::ObjHeader::read_from(&shared.pool, obj_off);
        assert!(hdr.has(flags::VALID) && !hdr.has(flags::QUARANTINED));
        server2.shutdown();
    });
    simu.run().expect_ok();
}

/// The full chaos combo of the issue's acceptance bar: lossy fabric
/// (loss + duplication + delay) + bit-rot on the primary (repaired from
/// the backup) + a primary crash mid-run — the replicated cluster still
/// converges to exactly the script-dictated final state.
#[test]
fn full_chaos_replicated_cluster_converges() {
    let seed = 0xF011_BEEF_u64;
    let mut simu = Sim::new(seed);
    let fabric = Fabric::new(CostModel::default());
    fabric.set_fault_plan(Some(FaultPlan::chaos(
        0.03,
        0.02,
        0.02,
        sim::micros(3),
        seed ^ 0xFA,
    )));
    let server_node = fabric.add_node("server");
    let store_layout = StoreLayout::new(1024, 1 << 20, false);
    let server = Arc::new(Store::format_on(
        &fabric,
        &server_node,
        store_layout,
        ServerConfig {
            scrub_enabled: true,
            ..ServerConfig::default()
        },
        1,
    ));

    const PHASE_A: usize = 24; // distinct keys written before the crash
    const PHASE_B: usize = 30; // ops issued across the failover
    let f = Arc::clone(&fabric);
    let server2 = Arc::clone(&server);
    let out: Arc<Mutex<BTreeMap<Vec<u8>, Vec<u8>>>> = Arc::default();
    let out2 = Arc::clone(&out);
    simu.spawn("main", move || {
        server2.start(&f);
        let cnode = f.add_node("cnode");
        let c = StoreClient::connect(&f, &cnode, &server2.routes(), ClientConfig::default())
            .expect("connect");

        // Phase A: seed the keyspace, then drain verification + mirroring
        // so the crash window holds no acked-but-unmirrored write.
        for i in 0..PHASE_A {
            c.put(&key(0, i), &value(0, i, 1)).expect("phase A put");
        }
        let shared = server2.shard(0).server().shared();
        let repl = server2.shard(0).backup().expect("replicated").stats();
        let deadline = sim::now() + sim::millis(200);
        while (shared.stats.bg_verified.get() < PHASE_A as u64
            || repl.applied_objects.get() < PHASE_A as u64)
            && sim::now() < deadline
        {
            sim::sleep(sim::micros(100));
        }
        assert!(
            repl.applied_objects.get() >= PHASE_A as u64,
            "phase A never fully mirrored"
        );

        // Bit-rot two durable objects (≤ 4 corrupted cache lines); the
        // scrubber must repair both from the backup.
        let base = shared.logs[0].base();
        let obj_size = layout::object_size(key(0, 0).len(), value(0, 0, 1).len());
        for i in [2usize, 7] {
            let value_off = base + i * obj_size + layout::HDR_LEN + layout::pad8(key(0, i).len());
            shared.pool.corrupt_range(value_off, 8, 0x3C);
        }
        let deadline = sim::now() + sim::millis(200);
        while shared.scrub.repaired.get() < 2 && sim::now() < deadline {
            sim::sleep(sim::micros(100));
        }
        assert_eq!(shared.scrub.repaired.get(), 2, "rot never repaired");

        // Crash the primary; phase B rides through the failover.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        f.crash_node(&server_node, CrashSpec::DropAll, &mut rng);
        for i in 0..PHASE_B {
            let k = i % PHASE_A;
            if i % 5 == 4 {
                c.del(&key(0, k)).expect("phase B del");
            } else {
                c.put(&key(0, k), &value(0, k, 100 + i as u32))
                    .expect("phase B put");
            }
        }
        assert!(c.failovers() >= 1, "phase B must have failed over");

        // Heal the fabric and read the whole keyspace back.
        f.set_fault_plan(None);
        let mut final_state = BTreeMap::new();
        for i in 0..PHASE_A {
            if let Some(v) = c.get(&key(0, i)).expect("verify get") {
                final_state.insert(key(0, i), v);
            }
        }
        *out2.lock().unwrap() = final_state;
        server2.shutdown();
    });
    simu.run().expect_ok();

    // Compute the script-dictated expectation: phase A tag 1, overwritten
    // by phase B (dels on every 5th op).
    let mut expected: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for i in 0..PHASE_A {
        expected.insert(key(0, i), value(0, i, 1));
    }
    for i in 0..PHASE_B {
        let k = i % PHASE_A;
        if i % 5 == 4 {
            expected.remove(&key(0, k));
        } else {
            expected.insert(key(0, k), value(0, k, 100 + i as u32));
        }
    }
    assert_eq!(
        *out.lock().unwrap(),
        expected,
        "replicated cluster diverged under full chaos"
    );
}

// ---------------------------------------------------------------------------
// Transactional chaos lane: exactly-once multi-key commits under faults.
// ---------------------------------------------------------------------------

const TXN_CLIENTS: usize = 3;
const TXN_OPS: usize = 25;
const TXN_KEYSPACE: usize = 8;
const TXN_WIDTH: usize = 3;

/// Per-client transaction scripts: each entry is one commit's write set
/// (distinct key indices into the client's own disjoint key range), so the
/// script alone dictates the final per-key state.
fn txn_scripts(seed: u64) -> Vec<Vec<Vec<usize>>> {
    (0..TXN_CLIENTS)
        .map(|cid| {
            let mut rng = StdRng::seed_from_u64(seed ^ ((cid as u64 + 7) << 40));
            (0..TXN_OPS)
                .map(|_| {
                    let mut set = Vec::with_capacity(TXN_WIDTH);
                    while set.len() < TXN_WIDTH {
                        let k = rng.gen_range(0..TXN_KEYSPACE);
                        if !set.contains(&k) {
                            set.push(k);
                        }
                    }
                    set
                })
                .collect()
        })
        .collect()
}

fn txn_value(cid: usize, t: usize, slot: usize) -> Vec<u8> {
    let mut v = format!("tv{cid}-{t:03}-{slot}-").into_bytes();
    while v.len() < 40 {
        v.push(b'x');
    }
    v
}

/// The key→value state the transaction scripts dictate.
fn txn_expected(scripts: &[Vec<Vec<usize>>]) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut map = BTreeMap::new();
    for (cid, script) in scripts.iter().enumerate() {
        for (t, set) in script.iter().enumerate() {
            for (slot, k) in set.iter().enumerate() {
                map.insert(key(cid, *k), txn_value(cid, t, slot));
            }
        }
    }
    map
}

/// What one transactional chaos run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TxnChaosOutcome {
    final_state: BTreeMap<Vec<u8>, Vec<u8>>,
    server_commits: u64,
    server_aborts: u64,
    dup_hits: u64,
    client_commits: u64,
    fault_dropped: u64,
    fault_duplicated: u64,
    fault_delayed: u64,
}

/// Run the scripted transactional workload on a standalone store under
/// `plan`, then read the keyspace back over a healed fabric.
fn run_txn_chaos(seed: u64, plan: Option<FaultPlan>) -> TxnChaosOutcome {
    use efactory::store::Routes;
    use efactory::txn::TxnKv;

    let scripts = txn_scripts(seed);
    let mut simu = Sim::new(seed);
    let fabric = Fabric::new(CostModel::default());
    if let Some(p) = plan {
        fabric.set_fault_plan(Some(p));
    }
    let server_node = fabric.add_node("server");
    let layout = StoreLayout::new(2048, 1 << 20, false);
    let cfg = ServerConfig {
        clean_enabled: false,
        ..ServerConfig::default()
    };
    let server = Arc::new(Server::format(&fabric, &server_node, layout, cfg));

    let out: Arc<Mutex<Option<TxnChaosOutcome>>> = Arc::default();
    let out2 = Arc::clone(&out);
    let f = Arc::clone(&fabric);
    let server2 = Arc::clone(&server);
    simu.spawn("main", move || {
        server2.start(&f);
        let routes = Routes::Shards(vec![server2.route()]);
        let commits_acc = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut handles = Vec::new();
        for (cid, script) in scripts.iter().cloned().enumerate() {
            let f2 = Arc::clone(&f);
            let routes = routes.clone();
            let commits_acc = Arc::clone(&commits_acc);
            handles.push(sim::spawn(&format!("txn-chaos-{cid}"), move || {
                let node = f2.add_node(&format!("tnode-{cid}"));
                let c = StoreClient::connect(&f2, &node, &routes, ClientConfig::default())
                    .expect("connect");
                for (t, set) in script.iter().enumerate() {
                    let writes: Vec<(Vec<u8>, Vec<u8>)> = set
                        .iter()
                        .enumerate()
                        .map(|(slot, k)| (key(cid, *k), txn_value(cid, t, slot)))
                        .collect();
                    c.txn_put_all(&writes).expect("chaos txn commit");
                    commits_acc.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            }));
        }
        for h in &handles {
            h.join();
        }
        // Heal the fabric for the verification sweep.
        f.set_fault_plan(None);
        let checker_node = f.add_node("checker");
        let checker = Client::connect(
            &f,
            &checker_node,
            &server_node,
            server2.desc(),
            ClientConfig::default(),
        )
        .expect("checker connect");
        let mut final_state = BTreeMap::new();
        for cid in 0..TXN_CLIENTS {
            for k in 0..TXN_KEYSPACE {
                if let Some(v) = checker.get(&key(cid, k)).expect("verify get") {
                    final_state.insert(key(cid, k), v);
                }
            }
        }
        let stats = &server2.shared().stats;
        let fs = f.stats();
        use std::sync::atomic::Ordering;
        *out2.lock().unwrap() = Some(TxnChaosOutcome {
            final_state,
            server_commits: stats.txn_commits.get(),
            server_aborts: stats.txn_aborts.get(),
            dup_hits: stats.dup_hits.get(),
            client_commits: commits_acc.load(Ordering::Relaxed),
            fault_dropped: fs.fault_dropped.load(Ordering::Relaxed),
            fault_duplicated: fs.fault_duplicated.load(Ordering::Relaxed),
            fault_delayed: fs.fault_delayed.load(Ordering::Relaxed),
        });
        server2.shutdown();
    });
    simu.run().expect_ok();
    let o = out.lock().unwrap().take().expect("run finished");
    o
}

/// Convergence + exactly-once for multi-key transactions under the default
/// chaos plan: the faulted run ends in the script-dictated state, and the
/// server committed each logical transaction exactly once — RPC resends
/// land in the dedup table, never in a second physical commit.
#[test]
fn chaotic_fabric_commits_each_transaction_exactly_once() {
    let seed = 0x7C59;
    let expected = txn_expected(&txn_scripts(seed));
    let logical = (TXN_CLIENTS * TXN_OPS) as u64;

    let plan = FaultPlan::chaos(0.04, 0.03, 0.02, sim::micros(3), seed ^ 0xFA);
    let faulted = run_txn_chaos(seed, Some(plan));
    let clean = run_txn_chaos(seed, None);

    assert!(
        faulted.fault_dropped > 0 && faulted.fault_duplicated > 0,
        "chaos plan must actually fire: {faulted:?}"
    );
    assert_eq!(faulted.final_state, expected, "faulted txn run diverged");
    assert_eq!(clean.final_state, expected, "fault-free txn run diverged");
    assert_eq!(faulted.client_commits, logical);
    assert_eq!(
        faulted.server_commits, logical,
        "each logical transaction must commit exactly once: {faulted:?}"
    );
    assert_eq!(clean.server_commits, logical);
    assert_eq!(
        clean.server_aborts, 0,
        "clean disjoint-key run never aborts"
    );
    assert_eq!(clean.dup_hits, 0, "clean fabric must not need dedup");
}

/// Identical seeds replay identical transactional chaos, byte for byte.
#[test]
fn txn_chaos_replay_is_deterministic() {
    let plan = FaultPlan::chaos(0.05, 0.02, 0.03, sim::micros(2), 412);
    let a = run_txn_chaos(19, Some(plan));
    let b = run_txn_chaos(19, Some(plan));
    assert_eq!(a, b, "same seed, same plan must replay identically");
}
