//! Pipelined-client equivalence suite.
//!
//! The bounded-window client ([`efactory::PipelinedClient`]) promises
//! three things beyond raw speed, and this suite locks each one in:
//!
//! * **Determinism** — same seed + same window replays byte-identically:
//!   the final KV state, every per-operation result *and latency*, the
//!   full client counter snapshot, the server counters, and the virtual
//!   clock all match across runs.
//! * **Serial equivalence** — `window == 1` is op-for-op the plain
//!   [`Client`]: identical results, identical virtual-time latencies,
//!   identical server-side counters. And whatever the window, the per-key
//!   hazard rules keep effect order equal to program order, so every
//!   window produces the same per-operation results and final state.
//! * **Exactly-once under chaos** — pipelined PUT/DELs over the PR 4
//!   lossy fault plan still converge to the script-dictated state with
//!   `server.puts == logical puts + put_reissues` and deduplicated
//!   retries, even with many request-id streams in flight at once.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use efactory::client::{Client, ClientConfig};
use efactory::log::StoreLayout;
use efactory::pipeline::{OpKind, PipelineConfig, PipelinedClient};
use efactory::server::{Server, ServerConfig};
use efactory::store::Routes;
use efactory_obs::Obs;
use efactory_rnic::{CostModel, Fabric, FaultPlan};
use efactory_sim as sim;
use efactory_sim::Sim;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scripted operation. Generated from the seed alone so the intended
/// final state is known independently of scheduling.
#[derive(Debug, Clone, Copy)]
enum Op {
    Put { key: usize, tag: u32 },
    Del { key: usize },
    Get { key: usize },
}

const OPS: usize = 140;
const KEYS: usize = 8;
const DOORBELL: usize = 8;

fn key(k: usize) -> Vec<u8> {
    format!("pk-{k:03}").into_bytes()
}

fn value(k: usize, tag: u32) -> Vec<u8> {
    let mut v = format!("pv-{k}-{tag}-").into_bytes();
    while v.len() < 40 {
        v.push(b'a' + ((v.len() as u32 + tag) % 26) as u8);
    }
    v
}

/// A write-heavy script over a small key range, so the window hits both
/// kinds of stalls: window-full waits and per-key hazard waits.
fn gen_script(seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9);
    let mut tag = 0u32;
    (0..OPS)
        .map(|_| {
            let k = rng.gen_range(0..KEYS);
            let roll: f64 = rng.gen();
            if roll < 0.55 {
                tag += 1;
                Op::Put { key: k, tag }
            } else if roll < 0.70 {
                Op::Del { key: k }
            } else {
                Op::Get { key: k }
            }
        })
        .collect()
}

/// The key→value state the script dictates.
fn expected_state(script: &[Op]) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut map = BTreeMap::new();
    for op in script {
        match *op {
            Op::Put { key: k, tag } => {
                map.insert(key(k), value(k, tag));
            }
            Op::Del { key: k } => {
                map.remove(&key(k));
            }
            Op::Get { .. } => {}
        }
    }
    map
}

fn logical_writes(script: &[Op]) -> (u64, u64) {
    let mut puts = 0;
    let mut dels = 0;
    for op in script {
        match op {
            Op::Put { .. } => puts += 1,
            Op::Del { .. } => dels += 1,
            Op::Get { .. } => {}
        }
    }
    (puts, dels)
}

/// One completed operation, in submission order: (kind, key, latency in
/// virtual ns, GET payload).
type CompletionRow = (u8, Vec<u8>, u64, Option<Vec<u8>>);

/// Everything observable about one run, for exact cross-run comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Outcome {
    final_state: BTreeMap<Vec<u8>, Vec<u8>>,
    /// Indexed by submission seq — scheduling may complete ops out of
    /// order, but every submission gets exactly one completion.
    completions: Vec<CompletionRow>,
    /// Full client-side registry snapshot (pipeline, loc-cache, retry
    /// counters — lexicographically ordered by the registry).
    client_counters: Vec<(String, u64)>,
    server_puts: u64,
    server_dels: u64,
    dup_hits: u64,
    put_reissues: u64,
    fault_dropped: u64,
    /// Virtual clock at the end of the workload (before verification).
    workload_end_ns: u64,
}

fn kind_tag(kind: OpKind) -> u8 {
    match kind {
        OpKind::Put => 0,
        OpKind::Get => 1,
        OpKind::Del => 2,
        OpKind::Txn => 3,
    }
}

/// Run the script through a [`PipelinedClient`] with the given window.
fn run_pipelined(seed: u64, window: usize, plan: Option<FaultPlan>) -> Outcome {
    let script = gen_script(seed);
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

    let out: Arc<Mutex<Option<Outcome>>> = Arc::default();
    let out2 = Arc::clone(&out);
    let f = Arc::clone(&fabric);
    let server2 = Arc::clone(&server);
    simu.spawn("main", move || {
        server2.start(&f);
        let desc = server2.desc();
        let node = f.add_node("cnode");
        let obs = Obs::new();
        let pcfg = PipelineConfig {
            window,
            doorbell_batch: DOORBELL,
            client: ClientConfig {
                obs: obs.clone(),
                ..ClientConfig::default()
            },
        };
        let routes = Routes::servers([&*server2]);
        let mut pc =
            PipelinedClient::connect(&f, &node, &routes, pcfg, "pipe").expect("pipelined connect");
        let mut rows: Vec<Option<CompletionRow>> = (0..script.len()).map(|_| None).collect();
        let record = |comps: Vec<efactory::pipeline::OpCompletion>,
                      rows: &mut Vec<Option<CompletionRow>>| {
            for c in comps {
                let seq = c.seq as usize;
                let latency = c.latency();
                let kind = kind_tag(c.kind);
                let payload = c.result.expect("op failed");
                assert!(
                    rows[seq].replace((kind, c.key, latency, payload)).is_none(),
                    "duplicate completion for seq {seq}"
                );
            }
        };
        for op in &script {
            let comps = match *op {
                Op::Put { key: k, tag } => pc.submit_put(&key(k), &value(k, tag)),
                Op::Del { key: k } => pc.submit_del(&key(k)),
                Op::Get { key: k } => pc.submit_get(&key(k)),
            };
            record(comps, &mut rows);
        }
        record(pc.finish(), &mut rows);
        let workload_end_ns = sim::now();
        let completions: Vec<CompletionRow> = rows
            .into_iter()
            .map(|r| r.expect("missing completion"))
            .collect();

        // Heal the fabric for the verification sweep.
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
        for k in 0..KEYS {
            if let Some(v) = checker.get(&key(k)).expect("verify get") {
                final_state.insert(key(k), v);
            }
        }
        let stats = &server2.shared().stats;
        let fs = f.stats();
        *out2.lock().unwrap() = Some(Outcome {
            final_state,
            completions,
            client_counters: obs.registry.snapshot(),
            server_puts: stats.puts.get(),
            server_dels: stats.dels.get(),
            dup_hits: stats.dup_hits.get(),
            put_reissues: obs.registry.counter("client.put_reissue").get(),
            fault_dropped: fs.fault_dropped.load(std::sync::atomic::Ordering::Relaxed),
            workload_end_ns,
        });
        server2.shutdown();
    });
    simu.run().expect_ok();
    let o = out.lock().unwrap().take().expect("outcome collected");
    o
}

/// Run the same script through the plain serial [`Client`] — the pre-
/// pipeline code path the harness uses for `window <= 1`.
fn run_legacy(seed: u64) -> Outcome {
    let script = gen_script(seed);
    let mut simu = Sim::new(seed);
    let fabric = Fabric::new(CostModel::default());
    let server_node = fabric.add_node("server");
    let layout = StoreLayout::new(2048, 1 << 20, false);
    let cfg = ServerConfig {
        clean_enabled: false,
        ..ServerConfig::default()
    };
    let server = Arc::new(Server::format(&fabric, &server_node, layout, cfg));

    let out: Arc<Mutex<Option<Outcome>>> = Arc::default();
    let out2 = Arc::clone(&out);
    let f = Arc::clone(&fabric);
    let server2 = Arc::clone(&server);
    simu.spawn("main", move || {
        server2.start(&f);
        let desc = server2.desc();
        let node = f.add_node("cnode");
        let obs = Obs::new();
        let c = Client::connect(
            &f,
            &node,
            &server_node,
            desc,
            ClientConfig {
                obs: obs.clone(),
                ..ClientConfig::default()
            },
        )
        .expect("connect");
        let mut completions = Vec::with_capacity(script.len());
        for op in &script {
            let t0 = sim::now();
            let (tag, k, payload) = match *op {
                Op::Put { key: k, tag } => {
                    c.put(&key(k), &value(k, tag)).expect("put");
                    (0u8, k, None)
                }
                Op::Del { key: k } => {
                    c.del(&key(k)).expect("del");
                    (2u8, k, None)
                }
                Op::Get { key: k } => (1u8, k, c.get(&key(k)).expect("get")),
            };
            completions.push((tag, key(k), sim::now() - t0, payload));
        }
        let workload_end_ns = sim::now();
        let mut final_state = BTreeMap::new();
        for k in 0..KEYS {
            if let Some(v) = c.get(&key(k)).expect("verify get") {
                final_state.insert(key(k), v);
            }
        }
        let stats = &server2.shared().stats;
        let fs = f.stats();
        *out2.lock().unwrap() = Some(Outcome {
            final_state,
            completions,
            // The plain client has no pipeline counters; compare those
            // registry entries only between pipelined runs.
            client_counters: Vec::new(),
            server_puts: stats.puts.get(),
            server_dels: stats.dels.get(),
            dup_hits: stats.dup_hits.get(),
            put_reissues: obs.registry.counter("client.put_reissue").get(),
            fault_dropped: fs.fault_dropped.load(std::sync::atomic::Ordering::Relaxed),
            workload_end_ns,
        });
        server2.shutdown();
    });
    simu.run().expect_ok();
    let o = out.lock().unwrap().take().expect("outcome collected");
    o
}

const SEED: u64 = 0x51DE;

/// Same seed + same window ⇒ byte-identical replay, at every window size.
#[test]
fn replay_is_byte_identical_per_window() {
    for window in [1usize, 4, 16] {
        let a = run_pipelined(SEED, window, None);
        let b = run_pipelined(SEED, window, None);
        assert_eq!(a, b, "window {window}: replay diverged");
    }
}

/// `window == 1` is op-for-op the plain client: identical results,
/// identical virtual-time latencies, identical server counters.
#[test]
fn window_one_is_op_for_op_equivalent_to_legacy_client() {
    let legacy = run_legacy(SEED);
    let mut w1 = run_pipelined(SEED, 1, None);
    let expected = expected_state(&gen_script(SEED));
    assert_eq!(legacy.final_state, expected, "legacy run diverged");
    // The pipeline wrapper adds bookkeeping counters; everything
    // observable must match exactly.
    w1.client_counters = Vec::new();
    assert_eq!(w1, legacy, "window=1 must be op-for-op the plain client");
}

/// Whatever the window, per-key hazards keep effect order equal to
/// program order: every window returns the same per-op results (latencies
/// aside) and the same final state, and pipelining actually overlaps work
/// (the virtual clock finishes earlier at window 16 than at window 1).
#[test]
fn all_windows_converge_to_serial_results() {
    let script = gen_script(SEED);
    let expected = expected_state(&script);
    let (puts, dels) = logical_writes(&script);
    let strip_latency = |o: &Outcome| {
        o.completions
            .iter()
            .map(|(kind, key, _lat, payload)| (*kind, key.clone(), payload.clone()))
            .collect::<Vec<_>>()
    };
    let w1 = run_pipelined(SEED, 1, None);
    assert_eq!(w1.final_state, expected);
    let reference = strip_latency(&w1);
    let mut last_end = w1.workload_end_ns;
    for window in [4usize, 16] {
        let o = run_pipelined(SEED, window, None);
        assert_eq!(o.final_state, expected, "window {window} diverged");
        assert_eq!(
            strip_latency(&o),
            reference,
            "window {window}: per-op results must match serial execution"
        );
        assert_eq!(o.server_puts, puts, "window {window}: dup PUT");
        assert_eq!(o.server_dels, dels, "window {window}: dup DEL");
        assert_eq!(o.dup_hits, 0, "clean fabric must not need dedup");
        assert!(
            o.workload_end_ns < last_end,
            "window {window} must overlap work: {} !< {}",
            o.workload_end_ns,
            last_end
        );
        last_end = o.workload_end_ns;
    }
}

/// Pipelined writes over the PR 4 lossy fault plan: the window keeps many
/// request-id streams in flight at once, and every one of them must still
/// be exactly-once — converged state, deduplicated retries, re-issues
/// accounted.
#[test]
fn pipelined_puts_under_lossy_plan_converge_exactly_once() {
    let script = gen_script(SEED);
    let expected = expected_state(&script);
    let (puts, dels) = logical_writes(&script);
    let plan = FaultPlan::chaos(0.04, 0.03, 0.02, sim::micros(3), SEED ^ 0xFA);
    for window in [4usize, 16] {
        let o = run_pipelined(SEED, window, Some(plan));
        assert!(
            o.fault_dropped > 0,
            "window {window}: chaos plan never fired: {o:?}"
        );
        assert_eq!(
            o.final_state, expected,
            "window {window}: lossy run diverged"
        );
        assert_eq!(
            o.server_puts,
            puts + o.put_reissues,
            "window {window}: retried PUTs must dedup to exactly-once"
        );
        assert_eq!(o.server_dels, dels, "window {window}: dup DEL");
        // And chaos replay stays deterministic with pipelining on.
        let o2 = run_pipelined(SEED, window, Some(plan));
        assert_eq!(o, o2, "window {window}: chaos replay diverged");
    }
}
