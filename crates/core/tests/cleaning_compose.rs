//! Cleaning composed with its neighbours: the location cache, the CRC
//! scrubber, server shutdown, and destination-pool exhaustion.
//!
//! The crash story lives in `tests/crash_sweep.rs`; this file pins the
//! *live* interactions — no power failures, but every other way a cleaning
//! pass can collide with concurrent machinery:
//!
//! * a caching client reading straight through a pass (flush on the
//!   CleanStart/CleanEnd edges, re-probe, repopulate — misses and fills
//!   move in lockstep with the `clean_epoch` bump),
//! * the scrubber waking mid-relocation (the clean-epoch guard must make
//!   it stand down rather than quarantine a half-copied object),
//! * `shutdown()` landing mid-pass (every exit path must restore the
//!   phase/notify invariants), and
//! * the destination pool running dry under client churn (park → Busy →
//!   abort → retry passes → the backlog drains; nothing panics).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use efactory::client::{Client, ClientConfig};
use efactory::layout::{self, flags, ObjHeader};
use efactory::log::StoreLayout;
use efactory::protocol::{Status, StoreError};
use efactory::server::{CleanPhase, Server, ServerConfig};
use efactory_rnic::{CostModel, Fabric, Node};
use efactory_sim as sim;
use efactory_sim::Sim;

/// Key → acked value pairs shared between writer processes and the final
/// read-back check.
type AckedLog = Arc<Mutex<Vec<(String, Vec<u8>)>>>;

fn connect_with(
    fabric: &Arc<Fabric>,
    server_node: &Node,
    server: &Server,
    cfg: ClientConfig,
) -> Client {
    let cnode = fabric.add_node("client");
    Client::connect(fabric, &cnode, server_node, server.desc(), cfg).unwrap()
}

fn connect(fabric: &Arc<Fabric>, server_node: &Node, server: &Server) -> Client {
    connect_with(fabric, server_node, server, ClientConfig::default())
}

/// Location-cache coherence across a full cleaning pass: every entry the
/// client cached against the old pool is evicted when the pass runs, the
/// next GET per key re-probes and repopulates, and the whole cycle lines
/// up with exactly one `clean_epoch` bump. A reader polling *during* the
/// pass must never observe a stale or torn value through the cache.
#[test]
fn loc_cache_evicts_reprobes_and_repopulates_across_cleaning() {
    const KEYS: usize = 12;
    let mut simu = Sim::new(71);
    let fabric = Fabric::new(CostModel::default());
    let server_node = fabric.add_node("server");
    let layout = StoreLayout::new(256, 64 * 1024, true);
    let cfg = ServerConfig {
        clean_threshold: 2.0, // manual trigger only
        clean_poll: sim::micros(5),
        ..ServerConfig::default()
    };
    let server = Server::format(&fabric, &server_node, layout, cfg);
    let f = Arc::clone(&fabric);
    simu.spawn("main", move || {
        let shared = server.start(&f);
        let c = connect_with(
            &f,
            &server_node,
            &server,
            ClientConfig {
                loc_cache: true,
                ..ClientConfig::default()
            },
        );
        let key = |i: usize| format!("cache-key-{i:02}");
        let val = |i: usize| format!("cached-value-{i:02}-abcdefgh");
        for i in 0..KEYS {
            c.put(key(i).as_bytes(), val(i).as_bytes()).unwrap();
        }
        // First GET fills the cache, second is served from it.
        for _ in 0..2 {
            for i in 0..KEYS {
                assert_eq!(
                    c.get(key(i).as_bytes()).unwrap().as_deref(),
                    Some(val(i).as_bytes()),
                );
            }
        }
        let hits0 = c.stats().loc_hits.get();
        let fills0 = c.stats().loc_fills.get();
        assert!(hits0 >= KEYS as u64, "cache never served a read: {hits0}");
        assert!(fills0 >= KEYS as u64, "cache never filled: {fills0}");

        sim::sleep(sim::micros(300)); // verifier drains
        assert_eq!(shared.clean_epoch.load(Ordering::Relaxed), 0);
        let misses_pre = c.stats().loc_misses.get();
        let fills_pre = c.stats().loc_fills.get();
        shared.clean_request.store(true, Ordering::Relaxed);
        // Read straight through the pass: the cache may fill and re-flush
        // on the CleanStart/CleanEnd edges, but every observed value must
        // be exact at every instant.
        let deadline = sim::now() + sim::millis(50);
        while shared.stats.cleanings.load(Ordering::Relaxed) == 0 {
            assert!(sim::now() < deadline, "cleaning never completed");
            for i in 0..KEYS {
                assert_eq!(
                    c.get(key(i).as_bytes()).unwrap().as_deref(),
                    Some(val(i).as_bytes()),
                    "stale value observed through the cache mid-clean"
                );
            }
            sim::sleep(sim::micros(2));
        }
        assert_eq!(
            shared.clean_epoch.load(Ordering::Relaxed),
            1,
            "exactly one pass ran"
        );

        // The pass relocated every object: the CleanStart/CleanEnd edges
        // evicted every cached old-pool entry, so the reads issued across
        // the pass re-probed (missed) and repopulated — at least one full
        // eviction + repopulation cycle beyond the pre-clean totals, in
        // lockstep with the single epoch bump.
        for i in 0..KEYS {
            assert_eq!(
                c.get(key(i).as_bytes()).unwrap().as_deref(),
                Some(val(i).as_bytes()),
            );
        }
        assert!(
            c.stats().loc_misses.get() >= misses_pre + KEYS as u64,
            "cleaning evicted nothing: misses {} -> {}",
            misses_pre,
            c.stats().loc_misses.get()
        );
        assert!(
            c.stats().loc_fills.get() >= fills_pre + KEYS as u64,
            "post-clean reads did not repopulate the cache: fills {} -> {}",
            fills_pre,
            c.stats().loc_fills.get()
        );
        // And the repopulated entries serve hits again.
        let hits1 = c.stats().loc_hits.get();
        for i in 0..KEYS {
            assert_eq!(
                c.get(key(i).as_bytes()).unwrap().as_deref(),
                Some(val(i).as_bytes()),
            );
        }
        assert!(
            c.stats().loc_hits.get() >= hits1 + KEYS as u64,
            "repopulated cache not serving hits"
        );
        server.shutdown();
    });
    simu.run().expect_ok();
}

/// The scrubber wakes while the cleaner is mid-compress and an old-pool
/// object rots under both of them. The clean-epoch guard must make the
/// scrubber stand down (halt its pass, quarantine nothing in the pools
/// being rewritten); the *cleaner's* own CRC check catches the rot,
/// quarantines the source, and relocates the newest intact ancestor
/// instead — so the key falls back one generation rather than vanishing.
#[test]
fn scrubber_stands_down_while_cleaner_relocates_rotted_pool() {
    const KEYS: usize = 48;
    const VLEN: usize = 256;
    let mut simu = Sim::new(73);
    let fabric = Fabric::new(CostModel::default());
    let server_node = fabric.add_node("server");
    let layout = StoreLayout::new(512, 192 * 1024, true);
    let cfg = ServerConfig {
        clean_threshold: 2.0,
        clean_poll: sim::micros(5),
        scrub_enabled: true,
        scrub_interval: sim::micros(2),
        ..ServerConfig::default()
    };
    let server = Server::format(&fabric, &server_node, layout, cfg);
    let f = Arc::clone(&fabric);
    simu.spawn("main", move || {
        let shared = server.start(&f);
        let c = connect(&f, &server_node, &server);
        let key = |i: usize| format!("scrub-{i:02}"); // 8 bytes
        let gen_val = |i: usize, g: usize| {
            let mut v = format!("scrub-gen{g}-{i:02}-").into_bytes();
            v.resize(VLEN, b'0' + (g as u8));
            v
        };
        for g in 0..2 {
            for i in 0..KEYS {
                c.put(key(i).as_bytes(), &gen_val(i, g)).unwrap();
            }
        }
        // Both generations durable before the rot lands (the scrubber and
        // cleaner only police DURABLE objects).
        let deadline = sim::now() + sim::millis(100);
        while shared.stats.bg_verified.get() < 2 * KEYS as u64 && sim::now() < deadline {
            sim::sleep(sim::micros(20));
        }
        assert!(shared.stats.bg_verified.get() >= 2 * KEYS as u64);
        // The scrubber has seen the clean image at least once.
        let deadline = sim::now() + sim::millis(100);
        while shared.scrub.passes.get() == 0 && sim::now() < deadline {
            sim::sleep(sim::micros(20));
        }
        assert!(
            shared.scrub.passes.get() > 0,
            "scrubber never completed a pass"
        );
        assert_eq!(shared.scrub.quarantined.get(), 0);

        // Kick the cleaner, then rot key 0's *current* (gen-1) version in
        // the old pool the moment the pass claims the store. The reverse
        // compress scan reaches it long after the injection instant.
        shared.clean_request.store(true, Ordering::Relaxed);
        let deadline = sim::now() + sim::millis(20);
        while shared.phase() == CleanPhase::Normal {
            assert!(sim::now() < deadline, "cleaning never started");
            sim::sleep(200);
        }
        let obj = layout::object_size(8, VLEN);
        let g1_off = shared.logs[0].base() + KEYS * obj;
        let hdr = ObjHeader::read_from(&shared.pool, g1_off);
        assert_eq!(hdr.klen, 8, "test lost track of the log geometry");
        shared
            .pool
            .corrupt_range(g1_off + layout::HDR_LEN + layout::pad8(8), 8, 0x5A);

        let deadline = sim::now() + sim::millis(100);
        while shared.stats.cleanings.load(Ordering::Relaxed) == 0 {
            assert!(sim::now() < deadline, "cleaning never completed");
            sim::sleep(sim::micros(10));
        }
        // The cleaner quarantined the rotted source — exactly one
        // quarantine, i.e. the scrubber never condemned a half-copied
        // object in the pool being rewritten.
        assert_eq!(
            shared.scrub.quarantined.get(),
            1,
            "spurious quarantine beyond the cleaner's own"
        );
        // The scrubber did wake mid-pass and stood down.
        assert!(
            shared.scrub.halted.get() >= 1,
            "scrubber never yielded to the cleaner (tune scrub_interval?)"
        );
        // Key 0 fell back one generation; everyone else kept gen 1.
        assert_eq!(
            c.get(key(0).as_bytes()).unwrap().as_deref(),
            Some(&gen_val(0, 0)[..]),
            "rotted key must fall back to the intact previous generation"
        );
        for i in 1..KEYS {
            assert_eq!(
                c.get(key(i).as_bytes()).unwrap().as_deref(),
                Some(&gen_val(i, 1)[..]),
            );
        }
        // Scrubbing resumes over the post-swap image: later passes
        // complete and find it clean.
        let passes0 = shared.scrub.passes.get();
        let deadline = sim::now() + sim::millis(100);
        while shared.scrub.passes.get() == passes0 && sim::now() < deadline {
            sim::sleep(sim::micros(20));
        }
        assert!(
            shared.scrub.passes.get() > passes0,
            "scrubber never resumed after the pass"
        );
        server.shutdown();
    });
    simu.run().expect_ok();
}

/// `shutdown()` landing mid-pass: the cleaner's stop path must unwind —
/// phase back to Normal, backpressure lifted, a durable Abort record in
/// the reserved terminal slot — instead of exiting with `clean_phase`
/// stuck at Compress/Merge and clients parked on an unmatched CleanStart.
#[test]
fn shutdown_mid_clean_unwinds_phase_and_writes_abort_record() {
    const KEYS: usize = 32;
    let mut simu = Sim::new(79);
    let fabric = Fabric::new(CostModel::default());
    let server_node = fabric.add_node("server");
    let layout = StoreLayout::new(256, 96 * 1024, true);
    let cfg = ServerConfig {
        clean_threshold: 2.0,
        clean_poll: sim::micros(5),
        ..ServerConfig::default()
    };
    let server = Server::format(&fabric, &server_node, layout, cfg);
    let f = Arc::clone(&fabric);
    simu.spawn("main", move || {
        let shared = server.start(&f);
        let c = connect(&f, &server_node, &server);
        for i in 0..KEYS {
            c.put(
                format!("stop-key-{i:02}").as_bytes(),
                format!("stop-val-{i:02}-0123456789abcdef").as_bytes(),
            )
            .unwrap();
        }
        sim::sleep(sim::micros(300)); // verifier drains
        shared.clean_request.store(true, Ordering::Relaxed);
        let deadline = sim::now() + sim::millis(20);
        while shared.phase() == CleanPhase::Normal {
            assert!(sim::now() < deadline, "cleaning never started");
            sim::sleep(200);
        }
        let dest = 1 - shared.active.load(Ordering::Relaxed);
        let terminal_off = shared.logs[dest].base();
        server.shutdown();
        sim::sleep(sim::millis(1)); // stop ripples through the cleaner

        assert_eq!(
            shared.phase(),
            CleanPhase::Normal,
            "stop path left the phase claimed"
        );
        assert!(
            !shared.clean_stalled.load(Ordering::Relaxed),
            "stop path left Busy backpressure raised"
        );
        assert_eq!(
            shared.stats.cleanings.load(Ordering::Relaxed),
            0,
            "aborted pass must not count as completed"
        );
        // The reserved terminal slot holds a durable Abort record, so a
        // restart's recovery knows the swap never happened.
        let hdr = ObjHeader::read_from(&shared.pool, terminal_off);
        let rec = efactory::cleaner::decode_clean_record(&shared.pool, terminal_off)
            .expect("terminal slot must hold a decodable cleaning record");
        assert_eq!(rec.stage, efactory::cleaner::STAGE_ABORT);
        assert!(hdr.has(flags::DURABLE));
    });
    simu.run().expect_ok();
}

/// Busy backpressure that *resolves*: a hot-key writer churns 1 KiB values
/// while a pass relocates a nearly-full pool. Mid-clean allocation
/// failures answer `Busy` (never a panic, never a lost ack); the writer
/// backs off and retries; the pass completes; a follow-up pass restores
/// headroom and the backlog drains — every acked write readable, fresh
/// writes accepted.
#[test]
fn busy_backpressure_resolves_once_clean_completes() {
    const FILL: usize = 50;
    const HOT: usize = 8;
    const VLEN: usize = 1000; // object_size(8, 1000) = 1064
    let mut simu = Sim::new(83);
    let fabric = Fabric::new(CostModel::default());
    let server_node = fabric.add_node("server");
    let layout = StoreLayout::new(256, 64 * 1024, true);
    let cfg = ServerConfig {
        clean_threshold: 2.0, // every pass in this test is explicit
        clean_poll: sim::micros(5),
        txn_abort_timeout: sim::millis(1), // short park window
        ..ServerConfig::default()
    };
    let server = Arc::new(Server::format(&fabric, &server_node, layout, cfg));
    let f = Arc::clone(&fabric);

    let ready = Arc::new(AtomicBool::new(false));
    let stop_writer = Arc::new(AtomicBool::new(false));
    let writer_done = Arc::new(AtomicBool::new(false));
    let saw_busy = Arc::new(AtomicBool::new(false));
    // Last acked generation per hot key (u64::MAX = never acked).
    let acked = Arc::new(Mutex::new(vec![u64::MAX; HOT]));

    let hot_val = |h: usize, v: u64| {
        let mut val = format!("hot-{h:02}-v{v:06}-").into_bytes();
        val.resize(VLEN, b'h');
        val
    };

    // Writer: hammers the hot set with 1 KiB values while the pass runs,
    // retrying on Busy/NoSpace. The retries are the "backlog".
    {
        let f2 = Arc::clone(&f);
        let server2 = Arc::clone(&server);
        let server_node = server_node.clone();
        let rdy = Arc::clone(&ready);
        let stop = Arc::clone(&stop_writer);
        let done = Arc::clone(&writer_done);
        let busy = Arc::clone(&saw_busy);
        let acked2 = Arc::clone(&acked);
        simu.spawn("writer", move || {
            while !rdy.load(Ordering::Relaxed) {
                sim::sleep(sim::micros(5));
            }
            let sh = Arc::clone(server2.shared());
            let c = connect(&f2, &server_node, &server2);
            // Wait for the pass to claim the store.
            let deadline = sim::now() + sim::millis(50);
            while sh.phase() == CleanPhase::Normal && sim::now() < deadline {
                sim::sleep(500);
            }
            let mut v = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let h = (v % HOT as u64) as usize;
                let val = {
                    let mut val = format!("hot-{h:02}-v{v:06}-").into_bytes();
                    val.resize(VLEN, b'h');
                    val
                };
                match c.put(format!("hot-{h:04}").as_bytes(), &val) {
                    Ok(()) => {
                        acked2.lock().unwrap()[h] = v;
                        v += 1;
                    }
                    Err(StoreError::Status(Status::Busy)) => {
                        busy.store(true, Ordering::Relaxed);
                        sim::sleep(sim::micros(2));
                    }
                    Err(StoreError::Status(Status::NoSpace)) => sim::sleep(sim::micros(2)),
                    Err(e) => panic!("writer hit a non-retryable error: {e}"),
                }
            }
            done.store(true, Ordering::Relaxed);
        });
    }

    let stop = Arc::clone(&stop_writer);
    let done = Arc::clone(&writer_done);
    let busy = Arc::clone(&saw_busy);
    let f2 = Arc::clone(&f);
    simu.spawn("main", move || {
        let sh = server.start(&f2);
        ready.store(true, Ordering::Relaxed);
        let c = connect(&f2, &server_node, &server);
        let key = |i: usize| format!("fill-{i:03}"); // 8 bytes
        let val = |i: usize| {
            let mut v = format!("fill-val-{i:03}-").into_bytes();
            v.resize(VLEN, b'f');
            v
        };
        for i in 0..FILL {
            c.put(key(i).as_bytes(), &val(i)).unwrap();
            // Read-back pins the version durable (selective durability).
            assert!(c.get(key(i).as_bytes()).unwrap().is_some());
        }
        sim::sleep(sim::micros(300)); // verifier drains

        // Kick the pass the writer is waiting for. 50 relocations leave
        // ~12 KiB of destination; the churn overruns it, so mid-clean
        // writes answer Busy until the pass gets through.
        sh.clean_request.store(true, Ordering::Relaxed);
        let deadline = sim::now() + sim::millis(200);
        while sh.stats.cleanings.load(Ordering::Relaxed) == 0 {
            assert!(
                sim::now() < deadline,
                "first pass never completed: phase={:?} stalls={}",
                sh.phase(),
                sh.stats.cleaner_stalls.get()
            );
            if sh.phase() == CleanPhase::Normal {
                sh.clean_request.store(true, Ordering::Relaxed);
            }
            sim::sleep(sim::micros(10));
        }
        assert!(
            busy.load(Ordering::Relaxed),
            "writer never saw Busy backpressure"
        );
        // Quiesce the churn and let the in-flight op settle.
        stop.store(true, Ordering::Relaxed);
        let deadline = sim::now() + sim::millis(50);
        while !done.load(Ordering::Relaxed) {
            assert!(sim::now() < deadline, "writer never quiesced");
            sim::sleep(sim::micros(5));
        }

        // A follow-up pass compacts the post-churn pool (the live set is
        // 58 keys; the stale hot generations are garbage) and restores
        // write headroom: the backlog is fully drained.
        let deadline = sim::now() + sim::millis(200);
        while sh.stats.cleanings.load(Ordering::Relaxed) < 2 {
            assert!(sim::now() < deadline, "follow-up pass never completed");
            if sh.phase() == CleanPhase::Normal {
                sh.clean_request.store(true, Ordering::Relaxed);
            }
            sim::sleep(sim::micros(10));
        }
        for i in 0..FILL {
            assert_eq!(
                c.get(key(i).as_bytes()).unwrap().as_deref(),
                Some(&val(i)[..]),
                "fill key lost across the contended pass"
            );
        }
        // Every acked hot write survived exactly (no lost ack, no
        // resurrection of an unacked overwrite).
        let acked = acked.lock().unwrap();
        assert!(
            acked.iter().any(|&v| v != u64::MAX),
            "writer never landed a single put"
        );
        for h in 0..HOT {
            let got = c.get(format!("hot-{h:04}").as_bytes()).unwrap();
            match acked[h] {
                u64::MAX => assert_eq!(got, None),
                v => assert_eq!(
                    got.as_deref(),
                    Some(&hot_val(h, v)[..]),
                    "hot key {h} lost its last acked write"
                ),
            }
        }
        let mut fresh = vec![b'n'; VLEN];
        fresh[..8].copy_from_slice(b"newwrite");
        c.put(b"post-drn", &fresh)
            .expect("post-drain write must succeed");
        assert_eq!(c.get(b"post-drn").unwrap().as_deref(), Some(&fresh[..]));
        server.shutdown();
    });
    simu.run().expect_ok();
}

/// A genuine destination-pool exhaustion: six writers pour *unique* keys
/// into the store while the pass runs, so the merge stage owes more
/// relocations than the destination can hold. The cleaner must park
/// (`cleaner.stalls`/`cleaner.park_ns` move), the handler must answer
/// `Busy`, the pass must unwind `Full` — and the store must come out the
/// other side live: phase Normal, backpressure lifted, every acked write
/// readable, and small writes still accepted. No panic, no deadlock.
#[test]
fn stalled_cleaner_parks_and_aborts_without_deadlock() {
    const FILL: usize = 50;
    const VLEN: usize = 1000; // fill objects: 1064 bytes
    const WVLEN: usize = 248; // writer objects: 296 bytes
    const WRITERS: usize = 6;
    let mut simu = Sim::new(89);
    let fabric = Fabric::new(CostModel::default());
    let server_node = fabric.add_node("server");
    let layout = StoreLayout::new(1024, 64 * 1024, true);
    let cfg = ServerConfig {
        clean_threshold: 2.0,
        clean_poll: sim::micros(5),
        txn_abort_timeout: sim::millis(1), // short park window
        ..ServerConfig::default()
    };
    let server = Arc::new(Server::format(&fabric, &server_node, layout, cfg));
    let f = Arc::clone(&fabric);

    let ready = Arc::new(AtomicBool::new(false));
    let stop_writers = Arc::new(AtomicBool::new(false));
    let writers_done = Arc::new(AtomicUsize::new(0));
    let saw_busy = Arc::new(AtomicBool::new(false));
    let acked: AckedLog = Arc::new(Mutex::new(Vec::new()));

    for id in 0..WRITERS {
        let f2 = Arc::clone(&f);
        let server2 = Arc::clone(&server);
        let server_node = server_node.clone();
        let rdy = Arc::clone(&ready);
        let stop = Arc::clone(&stop_writers);
        let done = Arc::clone(&writers_done);
        let busy = Arc::clone(&saw_busy);
        let acked2 = Arc::clone(&acked);
        simu.spawn(&format!("writer-{id}"), move || {
            while !rdy.load(Ordering::Relaxed) {
                sim::sleep(sim::micros(5));
            }
            let sh = Arc::clone(server2.shared());
            let c = connect(&f2, &server_node, &server2);
            let deadline = sim::now() + sim::millis(50);
            while sh.phase() == CleanPhase::Normal && sim::now() < deadline {
                sim::sleep(500);
            }
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let key = format!("w{id}-{n:04}");
                let mut val = format!("wv-{id}-{n:06}-").into_bytes();
                val.resize(WVLEN, b'w');
                match c.put(key.as_bytes(), &val) {
                    Ok(()) => {
                        acked2.lock().unwrap().push((key, val));
                        n += 1;
                    }
                    Err(StoreError::Status(Status::Busy)) => {
                        busy.store(true, Ordering::Relaxed);
                        sim::sleep(sim::micros(2));
                    }
                    Err(StoreError::Status(Status::NoSpace)) => sim::sleep(sim::micros(2)),
                    Err(e) => panic!("writer {id} hit a non-retryable error: {e}"),
                }
            }
            done.fetch_add(1, Ordering::Relaxed);
        });
    }

    let stop = Arc::clone(&stop_writers);
    let done = Arc::clone(&writers_done);
    let busy = Arc::clone(&saw_busy);
    let acked_main = Arc::clone(&acked);
    let f2 = Arc::clone(&f);
    simu.spawn("main", move || {
        let sh = server.start(&f2);
        ready.store(true, Ordering::Relaxed);
        let c = connect(&f2, &server_node, &server);
        let key = |i: usize| format!("fill-{i:03}");
        let val = |i: usize| {
            let mut v = format!("fill-val-{i:03}-").into_bytes();
            v.resize(VLEN, b'f');
            v
        };
        for i in 0..FILL {
            c.put(key(i).as_bytes(), &val(i)).unwrap();
            assert!(c.get(key(i).as_bytes()).unwrap().is_some());
        }
        sim::sleep(sim::micros(300)); // verifier drains

        // Kick the pass. The writers flood the old pool's remaining
        // ~12 KiB with unique 328-byte objects during compress; the merge
        // stage then owes ~12.1 KiB of relocations against ~12.1 KiB of
        // destination minus the writers' own merge-phase appropriation —
        // the cleaner's allocator must come up dry and park.
        sh.clean_request.store(true, Ordering::Relaxed);
        let deadline = sim::now() + sim::millis(100);
        while sh.stats.cleaner_stalls.get() == 0 {
            assert!(
                sim::now() < deadline,
                "cleaner never stalled: cleanings={} phase={:?} puts={} used=[{}, {}]",
                sh.stats.cleanings.load(Ordering::Relaxed),
                sh.phase(),
                sh.stats.puts.get(),
                sh.logs[0].used(),
                sh.logs[1].used(),
            );
            sim::sleep(sim::micros(5));
        }
        // The park deadline passes; the pass unwinds Full.
        let deadline = sim::now() + sim::millis(100);
        while sh.phase() != CleanPhase::Normal {
            assert!(sim::now() < deadline, "aborting pass never released the store");
            sim::sleep(sim::micros(5));
        }
        assert!(sh.stats.cleaner_park_ns.get() > 0, "stall recorded no park time");
        assert_eq!(
            sh.stats.cleanings.load(Ordering::Relaxed),
            0,
            "an exhausted pass must unwind, not complete"
        );
        assert!(
            !sh.clean_stalled.load(Ordering::Relaxed),
            "unwind left Busy backpressure raised"
        );
        stop.store(true, Ordering::Relaxed);
        let deadline = sim::now() + sim::millis(50);
        while done.load(Ordering::Relaxed) < WRITERS {
            assert!(sim::now() < deadline, "writers never quiesced");
            sim::sleep(sim::micros(5));
        }
        assert!(busy.load(Ordering::Relaxed), "no writer ever saw Busy");

        // Liveness after the abort: everything acked is readable (the
        // unwind's straggler drain made merge-phase acks durable), and
        // the store still accepts writes sized to the remaining space.
        for i in 0..FILL {
            assert_eq!(
                c.get(key(i).as_bytes()).unwrap().as_deref(),
                Some(&val(i)[..]),
                "fill key lost across the aborted pass"
            );
        }
        let acked = acked_main.lock().unwrap();
        assert!(!acked.is_empty(), "writers never landed a put");
        for (k, v) in acked.iter() {
            assert_eq!(
                c.get(k.as_bytes()).unwrap().as_deref(),
                Some(&v[..]),
                "acked write {k} lost across the aborted pass"
            );
        }
        let deadline = sim::now() + sim::millis(20);
        loop {
            match c.put(b"tiny-key", b"12345678") {
                Ok(()) => break,
                Err(StoreError::Status(Status::Busy | Status::NoSpace)) => {
                    assert!(
                        sim::now() < deadline,
                        "store wedged: small write never accepted: used=[{}, {}] phase={:?} stalls={} stalled={}",
                        sh.logs[0].used(),
                        sh.logs[1].used(),
                        sh.phase(),
                        sh.stats.cleaner_stalls.get(),
                        sh.clean_stalled.load(Ordering::Relaxed),
                    );
                    sim::sleep(sim::micros(10));
                }
                Err(e) => panic!("post-abort write failed hard: {e}"),
            }
        }
        assert_eq!(c.get(b"tiny-key").unwrap().as_deref(), Some(&b"12345678"[..]));
        server.shutdown();
    });
    simu.run().expect_ok();
}
