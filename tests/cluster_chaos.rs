//! Cluster chaos: node kills, link partitions, and metadata-replica
//! failures fired mid-migration. The contract under every fault:
//!
//! * the cluster **converges to exactly one owner** per shard — the
//!   metadata service's placement, the rendezvous seat table, and the
//!   serving reality agree;
//! * no acknowledged write is lost;
//! * an aborted migration leaves the source serving (unsealed) and the
//!   migration slot eventually frees (driver abort or the death
//!   detector's auto-abort), so a retry can succeed;
//! * the whole faulted run replays byte-identically from its seed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use efactory::client::ClientConfig;
use efactory::cluster::meta::ProposeOutcome;
use efactory::cluster::{MetaClient, MetaCmd, MigrateError};
use efactory::log::StoreLayout;
use efactory::server::ServerConfig;
use efactory::store::{Store, StoreClient};
use efactory_pmem::CrashSpec;
use efactory_rnic::{CostModel, Fabric, FaultPlan};
use efactory_sim as sim;
use efactory_sim::{Nanos, RunOutcome, Sim};

fn key(i: usize) -> Vec<u8> {
    format!("chaos-key-{i:04}").into_bytes()
}

fn value(i: usize, ver: usize) -> Vec<u8> {
    format!("chaos-value-{i:04}-v{ver:04}-abcdefghijklmnop").into_bytes()
}

/// A store of `shards` shards on `nodes` data nodes.
fn format(fabric: &Arc<Fabric>, nodes: usize, shards: usize) -> Store {
    Store::format_nodes(
        fabric,
        nodes,
        shards,
        0,
        StoreLayout::new(256, 256 * 1024, false),
        ServerConfig::default(),
    )
}

fn with_cluster(
    seed: u64,
    nodes: usize,
    shards: usize,
    body: impl FnOnce(&Arc<Store>) + Send + 'static,
) {
    let mut simu = Sim::new(seed);
    let fabric = Fabric::new(CostModel::default());
    let cluster = Arc::new(format(&fabric, nodes, shards));
    let c2 = Arc::clone(&cluster);
    simu.spawn("main", move || {
        c2.start();
        sim::sleep(sim::millis(1));
        body(&c2);
        c2.shutdown();
    });
    simu.run().expect_ok();
}

fn connect(cluster: &Store, name: &str) -> StoreClient {
    StoreClient::connect(
        cluster.fabric(),
        &cluster.fabric().add_node(name),
        &cluster.routes(),
        ClientConfig::default(),
    )
    .expect("cluster client connect")
}

/// Wait until the metadata service reports no migration in flight and
/// returns the converged state. Panics past `deadline`.
fn await_converged(cluster: &Store, deadline: Nanos) -> efactory::cluster::MetaState {
    let probe = cluster.fabric().add_node("convergence-probe");
    let mut mc = MetaClient::new(cluster.fabric(), &probe, cluster.meta_nodes());
    loop {
        if let Some(s) = mc.get_map(sim::now() + sim::micros(500)) {
            if s.migrating.is_none() {
                return s;
            }
        }
        assert!(
            sim::now() < deadline,
            "metadata service never converged (migration slot still held)"
        );
        sim::sleep(sim::micros(100));
    }
}

/// The "exactly one owner" invariant: metadata placement, the rendezvous
/// seat table, and serving reality agree on who owns `shard`, and every
/// seeded key reads its expected value through a fresh client.
fn assert_single_owner(cluster: &Store, shard: usize, keys: usize, tag: &str) {
    let state = await_converged(cluster, sim::now() + sim::millis(20));
    let meta_owner = state.placement.node_of_shard(shard);
    let seat_owner = cluster.owner_of(shard);
    assert_eq!(
        meta_owner, seat_owner,
        "metadata and rendezvous disagree on shard {shard}'s owner"
    );
    let c = connect(cluster, tag);
    for i in 0..keys {
        let got = c.get(&key(i)).unwrap().unwrap_or_else(|| {
            panic!("key {i} lost (owner {seat_owner})");
        });
        assert_eq!(got, value(i, 0), "key {i} corrupted");
    }
    // Still writable through the converged owner.
    c.put(b"post-chaos", b"alive").unwrap();
    assert_eq!(
        c.get(b"post-chaos").unwrap().as_deref(),
        Some(&b"alive"[..])
    );
}

const KEYS: usize = 24;

fn seed_keys(cluster: &Store) {
    let c = connect(cluster, "seeder");
    for i in 0..KEYS {
        c.put(&key(i), &value(i, 0)).unwrap();
        c.get(&key(i)).unwrap().unwrap();
    }
}

/// Shared slot a spawned migration writes its result into.
type MigrationSlot = Arc<Mutex<Option<Result<(), String>>>>;

/// Spawn the migration of `shard` to `to` in its own process; returns a
/// handle resolving to the result slot.
fn spawn_migration(
    cluster: &Arc<Store>,
    shard: usize,
    to: usize,
) -> (sim::ProcessHandle, MigrationSlot) {
    let out: MigrationSlot = Arc::default();
    let out2 = Arc::clone(&out);
    let c = Arc::clone(cluster);
    let h = sim::spawn("migrator", move || {
        let r = c
            .migrate(shard, to)
            .map(|_| ())
            .map_err(|e| format!("{e:?}"));
        *out2.lock().unwrap() = Some(r);
    });
    (h, out)
}

#[test]
fn dest_kill_mid_migration_aborts_and_retry_succeeds() {
    let cluster_holder: Arc<Mutex<Option<Arc<Store>>>> = Arc::default();
    let mut simu = Sim::new(1001);
    let fabric = Fabric::new(CostModel::default());
    let cluster = Arc::new(format(&fabric, 2, 1));
    let c2 = Arc::clone(&cluster);
    cluster_holder.lock().unwrap().replace(Arc::clone(&cluster));
    simu.spawn("main", move || {
        c2.start();
        sim::sleep(sim::millis(1));
        seed_keys(&c2);

        let from = c2.owner_of(0);
        let to = 1 - from;
        let (mig, result) = spawn_migration(&c2, 0, to);
        // Land the kill inside the copy/seal window (a clean migration
        // of this store takes ~85 µs end to end).
        sim::sleep(sim::micros(40));
        c2.crash_data_node(to, CrashSpec::DropAll, 0xD00D);
        // A destination power failure takes the WHOLE machine down,
        // including the scaffolding seat the migration is staging into —
        // not just the seats the node already owns.
        assert!(
            c2.seat_node(to, 0).is_crashed(),
            "destination crash must take the staged scaffolding seat down"
        );
        mig.join();
        let r = result.lock().unwrap().take().expect("migrator finished");
        assert!(
            r.is_err(),
            "migration must fail when its destination dies: {r:?}"
        );
        assert!(c2.stats().migrations_aborted.get() >= 1);

        // Source still owns and serves: the abort unsealed it.
        assert_eq!(c2.owner_of(0), from);
        let probe = connect(&c2, "probe");
        assert_eq!(
            probe.get(&key(0)).unwrap().as_deref(),
            Some(&value(0, 0)[..])
        );
        probe.put(&key(0), &value(0, 1)).unwrap();
        probe.put(&key(0), &value(0, 0)).unwrap();

        // The migration slot frees (driver abort, or the death detector's
        // NodeDown auto-abort if the driver's own endpoint died with the
        // destination), so a retry succeeds once the node is back.
        await_converged(&c2, sim::now() + sim::millis(20));
        c2.restart_data_node(to);
        assert!(
            !c2.seat_node(to, 0).is_crashed(),
            "restart must bring every seat of the machine back"
        );
        // Wait for the death detector to see the node alive again —
        // MigrateStart validates `alive[to]`.
        let probe_node = c2.fabric().add_node("alive-probe");
        let mut mc = MetaClient::new(c2.fabric(), &probe_node, c2.meta_nodes());
        let deadline = sim::now() + sim::millis(20);
        loop {
            if let Some(s) = mc.get_map(sim::now() + sim::micros(500)) {
                if s.alive[to] {
                    break;
                }
            }
            assert!(sim::now() < deadline, "restarted node never marked alive");
            sim::sleep(sim::micros(100));
        }
        let report = c2.migrate(0, to).expect("retry after restart must succeed");
        assert_eq!(report.verify_diff_bytes, 0);
        assert_eq!(c2.owner_of(0), to);
        assert_single_owner(&c2, 0, KEYS, "post-retry");
        c2.shutdown();
    });
    simu.run().expect_ok();
}

#[test]
fn source_kill_mid_migration_converges_after_restart() {
    with_cluster(1002, 2, 1, |cluster| {
        // `with_cluster` hands us &Store; migrations need an Arc for the
        // spawned process, so run the driver inline and fire the crash
        // from a controller process instead.
        seed_keys(cluster);
        let from = cluster.owner_of(0);
        let to = 1 - from;

        let fabric = Arc::clone(cluster.fabric());
        let victim_seat = cluster.seat_node(from, 0).clone();
        let victim_agent = cluster.agent_node(from).clone();
        let t_crash = sim::now() + sim::micros(40);
        let controller = sim::spawn("crash-controller", move || {
            sim::sleep_until(t_crash);
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0xBADD);
            fabric.crash_node(&victim_agent, CrashSpec::DropAll, &mut rng);
            fabric.crash_node(&victim_seat, CrashSpec::DropAll, &mut rng);
        });
        let r = cluster.migrate(0, to);
        controller.join();
        assert!(
            r.is_err(),
            "migration must fail when its source dies mid-copy: {r:?}"
        );

        // Slot frees (driver abort or death-detector auto-abort) …
        await_converged(cluster, sim::now() + sim::millis(20));
        // … the shard is still placed on the dead source (the move never
        // committed), and restarting the node recovers it from NVM.
        assert_eq!(cluster.owner_of(0), from);
        let reports = cluster.restart_data_node(from);
        assert_eq!(reports.len(), 1, "restart must recover the owned shard");
        assert_single_owner(cluster, 0, KEYS, "post-source-restart");
    });
}

#[test]
fn meta_replica_crash_mid_migration_still_commits() {
    with_cluster(1003, 2, 1, |cluster| {
        seed_keys(cluster);
        let from = cluster.owner_of(0);
        let to = 1 - from;

        // Kill metadata replica 0 just as the migration gets going: if it
        // was the leader this forces an election mid-protocol; either way
        // the two survivors are a majority and the commit must land.
        let t_crash = sim::now() + sim::micros(60);
        let cluster2 = Arc::clone(cluster);
        let controller = sim::spawn("meta-killer", move || {
            sim::sleep_until(t_crash);
            cluster2.crash_meta_replica(0, 0x5EED);
        });
        let report = cluster
            .migrate(0, to)
            .expect("migration must survive a single metadata replica loss");
        controller.join();
        assert_eq!(report.verify_diff_bytes, 0);
        assert_eq!(cluster.owner_of(0), to);

        // Bring the replica back (it restores its durable term, vote,
        // version and state) and check the converged view through the
        // full quorum.
        cluster.restart_meta_replica(0);
        sim::sleep(sim::millis(1));
        assert_single_owner(cluster, 0, KEYS, "post-meta-restart");
    });
}

#[test]
fn link_partition_mid_migration_aborts_cleanly_then_retry_succeeds() {
    with_cluster(1004, 2, 1, |cluster| {
        seed_keys(cluster);
        let from = cluster.owner_of(0);
        let to = 1 - from;

        // Partition the copy path (driver endpoint ↔ source seat) for
        // longer than the driver's bounded read retries, then heal.
        let fabric = Arc::clone(cluster.fabric());
        let a = cluster.agent_node(to).clone();
        let b = cluster.seat_node(from, 0).clone();
        let t_cut = sim::now() + sim::micros(30);
        let controller = sim::spawn("partitioner", move || {
            sim::sleep_until(t_cut);
            fabric.fail_link(&a, &b);
            sim::sleep(sim::micros(300));
            fabric.heal_link(&a, &b);
        });
        let r = cluster.migrate(0, to);
        controller.join();
        assert!(
            r.is_err(),
            "a partition outlasting the copy retries must abort the migration: {r:?}"
        );

        // Abort left the source serving; the healed fabric lets the retry
        // complete.
        assert_eq!(cluster.owner_of(0), from);
        let probe = connect(cluster, "probe");
        assert_eq!(
            probe.get(&key(1)).unwrap().as_deref(),
            Some(&value(1, 0)[..])
        );
        await_converged(cluster, sim::now() + sim::millis(20));
        let report = cluster.migrate(0, to).expect("retry on healed fabric");
        assert_eq!(report.verify_diff_bytes, 0);
        assert_single_owner(cluster, 0, KEYS, "post-heal");
    });
}

#[test]
fn node_death_detection_and_rejoin() {
    with_cluster(1005, 2, 2, |cluster| {
        seed_keys(cluster);
        let victim = 1usize;
        cluster.crash_data_node(victim, CrashSpec::DropAll, 0xFA11);

        // The death detector commits NodeDown after heartbeat silence.
        let probe = cluster.fabric().add_node("death-probe");
        let mut mc = MetaClient::new(cluster.fabric(), &probe, cluster.meta_nodes());
        let deadline = sim::now() + sim::millis(20);
        loop {
            if let Some(s) = mc.get_map(sim::now() + sim::micros(500)) {
                if !s.alive[victim] {
                    break;
                }
            }
            assert!(sim::now() < deadline, "death detector never fired");
            sim::sleep(sim::micros(100));
        }

        // Restart: recovery over surviving NVM + heartbeats mark it alive.
        let reports = cluster.restart_data_node(victim);
        assert!(
            !reports.is_empty(),
            "victim owned shards — recovery must run"
        );
        let deadline = sim::now() + sim::millis(20);
        loop {
            if let Some(s) = mc.get_map(sim::now() + sim::micros(500)) {
                if s.alive[victim] {
                    break;
                }
            }
            assert!(sim::now() < deadline, "rejoin never marked alive");
            sim::sleep(sim::micros(100));
        }
        assert_single_owner(cluster, 0, KEYS, "post-rejoin");
    });
}

/// A committed placement flip must survive power failure of a majority
/// of metadata replicas: term, vote, and log live on stable storage, so
/// a restarted quorum re-elects a leader that still holds the commit.
/// (Regression: replicas used to reboot with an empty log, letting a
/// stale candidate win the election and erase a committed
/// `MigrateCommit` — double-owning the shard.)
#[test]
fn committed_placement_survives_meta_majority_power_failure() {
    with_cluster(1006, 2, 1, |cluster| {
        seed_keys(cluster);
        let from = cluster.owner_of(0);
        let to = 1 - from;
        let report = cluster.migrate(0, to).expect("clean migration");
        assert_eq!(report.verify_diff_bytes, 0);

        // Power-fail ALL metadata replicas — the commit's only holders —
        // then bring back a bare majority that must still know it.
        cluster.crash_meta_replica(1, 0xDEAD_0001);
        cluster.crash_meta_replica(2, 0xDEAD_0002);
        cluster.crash_meta_replica(0, 0xDEAD_0000);
        cluster.restart_meta_replica(1);
        cluster.restart_meta_replica(2);

        let probe = cluster.fabric().add_node("quorum-probe");
        let mut mc = MetaClient::new(cluster.fabric(), &probe, cluster.meta_nodes());
        let deadline = sim::now() + sim::millis(20);
        let state = loop {
            if let Some(s) = mc.get_map(sim::now() + sim::micros(500)) {
                break s;
            }
            assert!(
                sim::now() < deadline,
                "restarted majority never elected a leader"
            );
            sim::sleep(sim::micros(100));
        };
        assert_eq!(
            state.placement.node_of_shard(0),
            to,
            "committed migration erased by metadata power failure"
        );
        cluster.restart_meta_replica(0);
        assert_single_owner(cluster, 0, KEYS, "post-meta-power-fail");
    });
}

/// A state a new metadata leader inherited from an older term is
/// committed only by the stamp of its own term, never by counting the
/// replicas that hold it. (Regression, Raft's "Figure 8": a leader used
/// to commit an inherited `MigrateStart` by replicating it alone, so a
/// candidate holding an uncommitted state from a later term could then
/// win a vote and erase a start a client had already been served.)
#[test]
fn served_meta_state_survives_a_later_terms_candidate() {
    with_cluster(808, 2, 2, |cluster| {
        let probe = cluster.fabric().add_node("figure8-probe");
        let mut mc = MetaClient::new(cluster.fabric(), &probe, cluster.meta_nodes());
        let served = |mc: &mut MetaClient| {
            let deadline = sim::now() + sim::millis(20);
            loop {
                if let Some(s) = mc.get_map(sim::now() + sim::micros(500)) {
                    break s;
                }
                assert!(sim::now() < deadline, "no metadata leader was elected");
                sim::sleep(sim::micros(100));
            }
        };
        // Crash `peers`, then propose `cmd` to the leader `served` just
        // found. The pause lets any heartbeat round in flight finish, so
        // the leader is still leading when `cmd` arrives; a prompt
        // `Unavailable` shows it applied `cmd` and then lost its round.
        let propose_alone = |mc: &mut MetaClient, peers: &[usize], cmd: MetaCmd| {
            sim::sleep(sim::micros(5));
            for &r in peers {
                cluster.crash_meta_replica(r, 0xF8_0000 + r as u64);
            }
            let t = sim::now();
            let out = mc.propose(&cmd, t + sim::micros(500));
            assert_eq!(out, ProposeOutcome::Unavailable, "{cmd:?} reached a peer");
            assert!(
                sim::now() - t < sim::micros(50),
                "{cmd:?} never reached a leader"
            );
        };

        // 1. Leader 0 takes X with both peers down: X lands on replica 0
        //    alone, uncommitted.
        served(&mut mc);
        propose_alone(&mut mc, &[1, 2], MetaCmd::MigrateStart { shard: 0, to: 1 });

        // 2. Replicas 1 and 2 elect 1 in a later term, which takes Y with
        //    its only peer down: Y lands on replica 1 alone.
        cluster.crash_meta_replica(0, 0xF8_0010);
        cluster.restart_meta_replica(1);
        cluster.restart_meta_replica(2);
        served(&mut mc);
        propose_alone(&mut mc, &[2], MetaCmd::MigrateStart { shard: 1, to: 0 });

        // 3. Replicas 0 and 2 elect a leader, which serves a state.
        cluster.crash_meta_replica(1, 0xF8_0011);
        cluster.restart_meta_replica(0);
        cluster.restart_meta_replica(2);
        let at_step3 = served(&mut mc).migrating;

        // 4. Replicas 1 and 2 elect a leader. Every state served from here
        //    on must still hold step 3's migration slot.
        cluster.crash_meta_replica(0, 0xF8_0020);
        cluster.restart_meta_replica(1);
        for _ in 0..10 {
            assert_eq!(
                served(&mut mc).migrating,
                at_step3,
                "a later leader erased a metadata state that was already served"
            );
            sim::sleep(sim::micros(100));
        }
    });
}

/// A metadata leader cut off from its peers must refuse to answer: its
/// read-index round loses the majority and it steps down, so clients are
/// referred to the quorum side instead of being served a placement map
/// that predates commits there. (Regression: a deposed leader used to
/// serve stale `GetMap` replies forever, letting a migration driver
/// conclude its commit "provably did not land" while the real leader
/// flipped ownership.)
#[test]
fn partitioned_stale_meta_leader_cannot_serve_stale_placement() {
    with_cluster(1007, 2, 1, |cluster| {
        seed_keys(cluster);
        let from = cluster.owner_of(0);
        let to = 1 - from;

        // Cut replica 0 (the deterministic initial leader) off from both
        // peers. The quorum side {1, 2} elects a successor; replica 0
        // must stop answering — not serve its pre-partition state.
        let meta = cluster.meta_nodes().to_vec();
        cluster.fabric().fail_link(&meta[0], &meta[1]);
        cluster.fabric().fail_link(&meta[0], &meta[2]);
        sim::sleep(sim::millis(1)); // quorum-side re-election

        // The migration lands through the quorum-side leader…
        let report = cluster
            .migrate(0, to)
            .expect("migration must commit through the quorum-side leader");
        assert_eq!(report.verify_diff_bytes, 0);

        // …and a FRESH client — which dials replica 0 first — must be
        // referred onward and observe the committed flip, never the
        // stale map.
        let probe = cluster.fabric().add_node("stale-probe");
        let mut mc = MetaClient::new(cluster.fabric(), &probe, cluster.meta_nodes());
        let state = mc
            .get_map(sim::now() + sim::millis(5))
            .expect("quorum leader must answer");
        assert_eq!(
            state.placement.node_of_shard(0),
            to,
            "client was served a stale pre-partition placement"
        );

        cluster.fabric().heal_link(&meta[0], &meta[1]);
        cluster.fabric().heal_link(&meta[0], &meta[2]);
        sim::sleep(sim::millis(1)); // deposed leader rejoins
        assert_single_owner(cluster, 0, KEYS, "post-partition-heal");
    });
}

/// A metadata replica cut off from both peers never raises its term, so
/// once its links heal it cannot depose the leader the quorum elected
/// meanwhile: every campaign starts with a pre-vote, which a replica
/// without peers never wins and which a peer that hears from a leader
/// refuses. (Regression: the cut-off replica bumped its term on every
/// election timeout, from 2 to 7, and 91 µs after the heal its
/// inflated-term campaign deposed the quorum's leader.)
#[test]
fn healed_meta_replica_does_not_depose_the_quorums_leader() {
    let mut simu = Sim::new(1010);
    let fabric = Fabric::new(CostModel::default());
    let cfg = ServerConfig::default();
    let registry = cfg.obs.registry.clone();
    let cluster = Store::format_nodes(
        &fabric,
        2,
        1,
        0,
        StoreLayout::new(256, 256 * 1024, false),
        cfg,
    );
    simu.spawn("main", move || {
        cluster.start();
        sim::sleep(sim::millis(1));
        let counter = |name: &str| registry.counter(name).get();
        // Cut replica 0 (the deterministic initial leader) off from both
        // peers and let the quorum side {1, 2} elect a successor.
        let meta = cluster.meta_nodes().to_vec();
        cluster.fabric().fail_link(&meta[0], &meta[1]);
        cluster.fabric().fail_link(&meta[0], &meta[2]);
        sim::sleep(sim::millis(1));
        let probe = cluster.fabric().add_node("prevote-probe");
        let mut mc = MetaClient::new(cluster.fabric(), &probe, cluster.meta_nodes());
        assert!(
            mc.get_map(sim::now() + sim::millis(5)).is_some(),
            "the quorum side never elected a leader"
        );
        let (elections, term) = (counter("meta.elections"), counter("meta.terms"));

        // Ten of replica 0's election timeouts, cut off.
        sim::sleep(sim::millis(3));
        assert_eq!(
            counter("meta.terms"),
            term,
            "the cut-off replica raised its term"
        );

        cluster.fabric().heal_link(&meta[0], &meta[1]);
        cluster.fabric().heal_link(&meta[0], &meta[2]);
        sim::sleep(sim::millis(1));
        assert_eq!(
            (counter("meta.elections"), counter("meta.terms")),
            (elections, term),
            "the healed replica forced an election"
        );
        assert!(mc.get_map(sim::now() + sim::millis(5)).is_some());
        cluster.shutdown();
    });
    simu.run().expect_ok();
}

/// A vote round stops waiting once a majority has granted: when the
/// leader is cut off, the quorum side elects a successor within replica
/// 1's election timeout (280 µs) of the last append it heard, at most one
/// 40 µs heartbeat before the cut, without waiting out the 50 µs peer
/// deadline of the silent replica in its pre-vote or vote round.
/// (Regression: each round waited out that deadline, and the successor was
/// elected 375 µs after the cut.)
#[test]
fn quorum_elects_a_successor_without_waiting_out_the_cut_off_replica() {
    let mut simu = Sim::new(1010);
    let fabric = Fabric::new(CostModel::default());
    let cfg = ServerConfig::default();
    let registry = cfg.obs.registry.clone();
    let cluster = Store::format_nodes(
        &fabric,
        2,
        1,
        0,
        StoreLayout::new(256, 256 * 1024, false),
        cfg,
    );
    simu.spawn("main", move || {
        cluster.start();
        sim::sleep(sim::millis(1));
        let elections = registry.counter("meta.elections");
        let before = elections.get();
        let meta = cluster.meta_nodes().to_vec();
        cluster.fabric().fail_link(&meta[0], &meta[1]);
        cluster.fabric().fail_link(&meta[0], &meta[2]);
        let cut = sim::now();
        while elections.get() == before {
            assert!(sim::now() < cut + sim::millis(1), "no successor elected");
            sim::sleep(sim::micros(1));
        }
        let took = sim::now() - cut;
        assert!(
            took <= sim::micros(280 + 40),
            "successor elected {took} ns after the cut"
        );
        cluster.shutdown();
    });
    simu.run().expect_ok();
}

/// A peer reply to an earlier round never counts in a later one. The
/// link between replica 0 (the initial leader) and replica 2 either slows
/// every message by 5 µs, so replica 2's replies to the pre-vote and vote
/// arrive after replica 1 has decided them, or delivers every message
/// twice, so every reply from replica 2 has stale copies queued behind
/// it. Then both of the leader's links are cut just after a heartbeat
/// round, and a proposal that neither peer receives must not commit.
/// (Regression: the leader read the late vote reply, or a copy of an
/// earlier ack, as the next round's ack; once both links were cut it
/// counted such a stale ack and reported the proposal `Committed`.)
#[test]
fn stale_peer_reply_never_commits_an_append_both_peers_miss() {
    let slow = FaultPlan::chaos(0.0, 0.0, 1.0, sim::micros(5), 1011);
    let twice = FaultPlan::chaos(0.0, 1.0, 0.0, 0, 1011);
    for plan in [slow, twice] {
        let mut simu = Sim::new(1011);
        let fabric = Fabric::new(CostModel::default());
        let cfg = ServerConfig::default();
        let registry = cfg.obs.registry.clone();
        let cluster = Store::format_nodes(
            &fabric,
            2,
            1,
            0,
            StoreLayout::new(256, 256 * 1024, false),
            cfg,
        );
        simu.spawn("main", move || {
            let meta = cluster.meta_nodes().to_vec();
            cluster.fabric().set_link_fault(&meta[0], &meta[2], plan);
            cluster.start();
            sim::sleep(sim::millis(1));
            // Cut both links just after a heartbeat round, so the
            // proposal's round is the first after the cut.
            let appends = registry.counter("meta.appends");
            let before = appends.get();
            while appends.get() == before {
                sim::sleep(sim::micros(1));
            }
            sim::sleep(sim::micros(20));
            cluster.fabric().fail_link(&meta[0], &meta[1]);
            cluster.fabric().fail_link(&meta[0], &meta[2]);
            let probe = cluster.fabric().add_node("stale-reply-probe");
            let mut mc = MetaClient::new(cluster.fabric(), &probe, cluster.meta_nodes());
            let cmd = MetaCmd::MigrateStart { shard: 0, to: 1 };
            assert_eq!(
                mc.propose(&cmd, sim::now() + sim::micros(200)),
                ProposeOutcome::Unavailable,
                "a proposal no peer received was reported committed ({plan:?})"
            );
            cluster.shutdown();
        });
        simu.run().expect_ok();
    }
}

/// An abort that finds no metadata majority must not leak the migration
/// slot: the driver's record wants the abort, and the node agents'
/// settle step re-proposes it once a quorum is back, with no call from
/// the test. (Regression: the abort used to be dropped after one
/// best-effort attempt — with both endpoints alive the death sweep never
/// auto-aborts, so the slot stayed occupied and every migration to a
/// different destination was rejected forever.)
#[test]
fn unacked_abort_is_reproposed_once_meta_recovers() {
    with_cluster(1009, 3, 1, |cluster| {
        seed_keys(cluster);
        let from = cluster.owner_of(0);
        let mid = (from + 1) % 3;
        let alt = (from + 2) % 3;

        // Fail the copy path (driver endpoint ↔ source seat) and power-
        // fail EVERY metadata replica just after the start committed:
        // the copy dies, and the driver's abort finds no majority.
        let fabric = Arc::clone(cluster.fabric());
        let a = cluster.agent_node(mid).clone();
        let b = cluster.seat_node(from, 0).clone();
        let c2 = Arc::clone(cluster);
        let t_fault = sim::now() + sim::micros(30);
        let controller = sim::spawn("fault-controller", move || {
            sim::sleep_until(t_fault);
            fabric.fail_link(&a, &b);
            c2.crash_meta_replica(0, 0xAB07_0000);
            c2.crash_meta_replica(1, 0xAB07_0001);
            c2.crash_meta_replica(2, 0xAB07_0002);
        });
        let r = cluster.migrate(0, mid);
        controller.join();
        assert!(
            matches!(r, Err(MigrateError::CopyFailed)),
            "migration must die in the copy with its path cut: {r:?}"
        );
        assert!(
            cluster.stats().migrations_started.get() >= 1,
            "start must have committed before the meta power failure"
        );
        assert!(cluster.stats().migrations_aborted.get() >= 1);

        // Metadata comes back with the slot still occupied (durable
        // state) and both endpoints alive, so the death sweep never frees
        // it: the agents' settle step must.
        for r in 0..3 {
            cluster.restart_meta_replica(r);
        }
        cluster
            .fabric()
            .heal_link(cluster.agent_node(mid), cluster.seat_node(from, 0));
        let state = await_converged(cluster, sim::now() + sim::millis(20));
        assert_eq!(state.placement.node_of_shard(0), from);
        let report = cluster
            .migrate(0, alt)
            .expect("slot freed — a different destination must now succeed");
        assert_eq!(report.verify_diff_bytes, 0);
        assert_single_owner(cluster, 0, KEYS, "post-abort-reproposal");
    });
}

/// The whole metadata service going dark mid-migration must not strand
/// the shard. All three replicas power off for 5 ms at `t` µs into a
/// migration, for every `t` from 0 to 96 µs in steps of 4, and restart.
/// With no call beyond the restarts, within 20 ms of the restart the
/// placement and the seat table agree with the slot empty, a fresh
/// client writes and reads a seeded key, and the run ends after
/// `shutdown`. (Regression: a start or commit whose outcome the blackout
/// hid left the source sealed and the slot held, a landed commit waited
/// for an explicit settle call, and a parked destination server outlived
/// `shutdown`.)
#[test]
fn metadata_blackout_mid_migration_settles_by_itself() {
    const SEEDED: usize = 16;
    for t in (0..=96).step_by(4) {
        let mut simu = Sim::new(301);
        let fabric = Fabric::new(CostModel::default());
        let cluster = Arc::new(format(&fabric, 2, 1));
        simu.spawn("main", move || {
            cluster.start();
            sim::sleep(sim::millis(1));
            let seeder = connect(&cluster, "seeder");
            for i in 0..SEEDED {
                seeder.put(&key(i), &value(i, 0)).unwrap();
            }
            let t_restart = sim::now() + sim::micros(t) + sim::millis(5);
            let c2 = Arc::clone(&cluster);
            let blackout = sim::spawn("meta-blackout", move || {
                sim::sleep_until(t_restart - sim::millis(5));
                for r in 0..3 {
                    c2.crash_meta_replica(r, 0xB1AC_0000 + r as u64);
                }
                sim::sleep_until(t_restart);
                for r in 0..3 {
                    c2.restart_meta_replica(r);
                }
            });
            // Either outcome is legal; what follows must hold for both.
            let _ = cluster.migrate(0, 1);
            blackout.join();

            let probe = cluster.fabric().add_node("blackout-probe");
            let mut mc = MetaClient::new(cluster.fabric(), &probe, cluster.meta_nodes());
            loop {
                let settled = mc.get_map(sim::now() + sim::micros(500)).is_some_and(|s| {
                    s.migrating.is_none() && s.placement.node_of_shard(0) == cluster.owner_of(0)
                });
                if settled {
                    break;
                }
                assert!(
                    sim::now() < t_restart + sim::millis(20),
                    "blackout at {t} µs: the migration never settled"
                );
                sim::sleep(sim::micros(100));
            }
            let c = connect(&cluster, "post-blackout");
            for i in 0..SEEDED {
                assert_eq!(
                    c.get(&key(i)).unwrap(),
                    Some(value(i, 0)),
                    "blackout at {t} µs: key {i}"
                );
            }
            c.put(&key(0), &value(0, 1))
                .unwrap_or_else(|e| panic!("blackout at {t} µs: PUT failed: {e:?}"));
            assert_eq!(c.get(&key(0)).unwrap(), Some(value(0, 1)));
            cluster.shutdown();
        });
        match simu.run_until(sim::secs(1)) {
            RunOutcome::Completed { .. } => {}
            other => panic!("blackout at {t} µs: the run did not end after shutdown: {other:?}"),
        }
    }
}

/// One full faulted run: writer traffic + a destination kill and a link
/// partition fired mid-migration + restart + retried migration. Returns
/// the end-of-run counter snapshot.
fn faulted_run(seed: u64) -> Vec<(String, u64)> {
    let out: Arc<Mutex<Vec<(String, u64)>>> = Arc::default();
    let out2 = Arc::clone(&out);
    let mut simu = Sim::new(seed);
    let fabric = Fabric::new(CostModel::default());
    let cluster = Arc::new(format(&fabric, 2, 1));
    let c2 = Arc::clone(&cluster);
    simu.spawn("main", move || {
        c2.start();
        sim::sleep(sim::millis(1));
        seed_keys(&c2);

        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let fabric2 = Arc::clone(c2.fabric());
        let routes = c2.routes();
        let writer = sim::spawn("writer", move || {
            let w = StoreClient::connect(
                &fabric2,
                &fabric2.add_node("writer-node"),
                &routes,
                ClientConfig::default(),
            )
            .unwrap();
            let mut ver = 1;
            while !stop2.load(Ordering::Relaxed) {
                for i in 0..4 {
                    // Failed puts are fine while the fabric is faulted; the
                    // writer keeps pressing.
                    let _ = w.put(&key(i), &value(i, ver));
                }
                ver += 1;
                sim::sleep(sim::micros(10));
            }
        });

        let from = c2.owner_of(0);
        let to = 1 - from;
        let (mig, result) = spawn_migration(&c2, 0, to);
        // Fault 1: partition the copy path briefly.
        sim::sleep(sim::micros(25));
        let a = c2.agent_node(to).clone();
        let b = c2.seat_node(from, 0).clone();
        c2.fabric().fail_link(&a, &b);
        sim::sleep(sim::micros(40));
        c2.fabric().heal_link(&a, &b);
        // Fault 2: kill the destination node.
        sim::sleep(sim::micros(10));
        c2.crash_data_node(to, CrashSpec::DropAll, seed ^ 0xFEE1);
        mig.join();
        let _ = result.lock().unwrap().take();

        // Converge, restart, retry until the move lands.
        await_converged(&c2, sim::now() + sim::millis(50));
        c2.restart_data_node(to);
        let probe_node = c2.fabric().add_node("alive-probe");
        let mut mc = MetaClient::new(c2.fabric(), &probe_node, c2.meta_nodes());
        let deadline = sim::now() + sim::millis(50);
        loop {
            if let Some(s) = mc.get_map(sim::now() + sim::micros(500)) {
                if s.alive[to] && s.migrating.is_none() {
                    break;
                }
            }
            assert!(sim::now() < deadline, "cluster never converged for retry");
            sim::sleep(sim::micros(100));
        }
        if c2.owner_of(0) == from {
            c2.migrate(0, to).expect("retried migration");
        }
        sim::sleep(sim::millis(1));
        stop.store(true, Ordering::Relaxed);
        writer.join();

        // Every key still serves a well-formed acknowledged version.
        let reader = connect(&c2, "reader");
        for i in 0..KEYS {
            let got = reader.get(&key(i)).unwrap().expect("key lost under chaos");
            let s = String::from_utf8(got.clone()).unwrap();
            let ver: usize = s.rsplit("-v").next().unwrap()[..4].parse().unwrap();
            assert_eq!(got, value(i, ver), "key {i} torn under chaos");
        }
        c2.shutdown();
        *out2.lock().unwrap() = c2.seat(0).server.shared().cfg.obs.registry.snapshot();
    });
    simu.run().expect_ok();
    let v = out.lock().unwrap().clone();
    v
}

/// Node counts exercised by the CI cluster lane: `EF_TEST_NODES` env
/// (comma-separated; empty/unset = the default {2,4} sweep). CI splits
/// the sweep across matrix lanes, each with its own chaos seed.
fn nodes_under_test() -> Vec<usize> {
    match std::env::var("EF_TEST_NODES") {
        Ok(list) if !list.trim().is_empty() => list
            .split(',')
            .map(|t| t.trim().parse().expect("EF_TEST_NODES: bad count"))
            .collect(),
        _ => vec![2, 4],
    }
}

/// One faulted migration per node count: the destination dies mid-copy,
/// the cluster converges (driver abort or the death detector's
/// auto-abort), the node restarts + recovers, and a retried migration
/// lands — after which every shard has exactly one owner and every
/// seeded key serves. `EF_TEST_CHAOS=<seed>` shifts the crash seed so
/// each CI lane exercises a genuinely different interleaving.
#[test]
fn node_count_matrix_converges_under_dest_kill() {
    let chaos: u64 = std::env::var("EF_TEST_CHAOS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    for nodes in nodes_under_test() {
        with_cluster(
            9001 ^ chaos.wrapping_mul(0x9E37),
            nodes,
            nodes,
            move |cluster| {
                seed_keys(cluster);
                let from = cluster.owner_of(0);
                let to = (from + 1) % nodes;
                let (mig, result) = spawn_migration(cluster, 0, to);
                sim::sleep(sim::micros(40));
                cluster.crash_data_node(to, CrashSpec::DropAll, chaos ^ 0xC1A0);
                mig.join();
                let _ = result.lock().unwrap().take();

                await_converged(cluster, sim::now() + sim::millis(50));
                cluster.restart_data_node(to);
                let probe = cluster.fabric().add_node("alive-probe");
                let mut mc = MetaClient::new(cluster.fabric(), &probe, cluster.meta_nodes());
                let deadline = sim::now() + sim::millis(50);
                loop {
                    if let Some(s) = mc.get_map(sim::now() + sim::micros(500)) {
                        if s.alive[to] && s.migrating.is_none() {
                            break;
                        }
                    }
                    assert!(sim::now() < deadline, "cluster never converged for retry");
                    sim::sleep(sim::micros(100));
                }
                if cluster.owner_of(0) == from {
                    let report = cluster.migrate(0, to).expect("retried migration");
                    assert_eq!(report.verify_diff_bytes, 0);
                }
                for g in 0..nodes {
                    assert_single_owner(cluster, g, KEYS, &format!("n{nodes}-shard{g}"));
                }
            },
        );
    }
}

#[test]
fn faulted_migration_run_replays_byte_identically() {
    let a = faulted_run(31337);
    let b = faulted_run(31337);
    assert_eq!(a, b, "chaos run must replay byte-identically from its seed");
    let get = |name: &str| {
        a.iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    assert!(get("cluster.node_kills") >= 1);
    assert!(get("cluster.node_restarts") >= 1);
    assert_eq!(get("cluster.migrate.verify_diff_bytes"), 0);
}
