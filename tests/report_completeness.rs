//! Report-completeness audit: every counter the subsystems register must
//! land in the `--json` run report, and the families introduced by the
//! retry/replication/scrub/pipeline PRs must actually be present in the
//! registry snapshot their configurations exercise.
//!
//! The report embeds `RunResult::counters` verbatim, so the audit diffs
//! the registry's key set against the rendered JSON — a counter someone
//! registers but forgets to snapshot (or a snapshot the report drops)
//! fails here, not in a downstream dashboard.

use efactory_harness::{cluster, Cleaning, ExperimentSpec, Report, SystemKind};
use efactory_obs::Obs;
use efactory_rnic::{CostModel, FaultPlan};
use efactory_ycsb::Mix;

fn spec() -> ExperimentSpec {
    ExperimentSpec {
        system: SystemKind::EFactory,
        mix: Mix::A,
        value_len: 128,
        key_len: 16,
        clients: 2,
        ops_per_client: 50,
        record_count: 64,
        seed: 5,
        cleaning: Cleaning::Disabled,
        force_clean: false,
        shards: 1,
        doorbell_batch: 0,
        replicas: 0,
        fault_at: None,
        fault_plan: None,
        scrub: false,
        window: 1,
        loc_cache: false,
        snap_readers: 0,
        nodes: 1,
        migrate_at: None,
        exec: None,
    }
}

/// Run `spec`, render its report entry, and check that every registry key
/// appears in the JSON. Returns the snapshot's key set.
fn audit(tag: &str, s: &ExperimentSpec) -> Vec<String> {
    let obs = Obs::new();
    let r = cluster::run_observed(s, CostModel::default(), &obs);
    let mut rep = Report::new("completeness-test");
    rep.add(tag, s, &r);
    let json = rep.to_json();
    for (name, _) in &r.counters {
        assert!(
            json.contains(&format!("\"{name}\":")),
            "{tag}: counter {name} registered but missing from the report"
        );
    }
    r.counters.into_iter().map(|(n, _)| n).collect()
}

#[test]
fn every_registered_counter_lands_in_the_report() {
    // Two configurations cover the whole counter surface: the pipelined
    // window registers `client.pipeline.*` but excludes replication, and
    // the replicated+scrubbed+chaos run registers everything else.
    let mut repl = spec();
    repl.replicas = 1;
    repl.scrub = true;
    repl.loc_cache = true;
    repl.fault_plan = Some(FaultPlan {
        drop_p: 0.02,
        dup_p: 0.01,
        delay_p: 0.02,
        delay_ns: 1_500,
        seed: 9,
    });
    let mut names = audit("repl-scrub-chaos", &repl);

    let mut pipe = spec();
    pipe.mix = Mix::UpdateOnly;
    pipe.window = 16;
    pipe.doorbell_batch = 16;
    names.extend(audit("pipelined", &pipe));

    // The transactional lane: multi-key commits, CAS-free snapshot reads,
    // and the server-side txn/snapshot counter families.
    let mut txn = spec();
    txn.mix = Mix::T;
    txn.snap_readers = 1;
    names.extend(audit("transactional", &txn));

    // The cluster lane: multi-node placement with a live migration fired
    // mid-window, registering the cluster.*/meta.*/cluster.migrate.*
    // families. The migration moves shard 0 from node 0 to node 1, and
    // the pool it creates there counts its pmem work under that seat.
    let mut clu = spec();
    clu.nodes = 2;
    clu.shards = 2;
    clu.ops_per_client = 150;
    clu.migrate_at = Some(50_000);
    let clu_names = audit("cluster-migrate", &clu);
    assert!(
        clu_names.iter().any(|n| n == "n1.g0.pmem.flushes"),
        "the migrated shard's destination pool registered no pmem counters"
    );
    names.extend(clu_names);

    // The cleaning lane: dual pools with a forced pass mid-window so the
    // server.cleaner.* family (including the backpressure counters) is
    // live, not just registered.
    let mut cln = spec();
    cln.mix = Mix::UpdateOnly;
    cln.cleaning = Cleaning::Enabled {
        threshold: 0.55,
        pool_len: 64 * 1024,
    };
    cln.force_clean = true;
    cln.ops_per_client = 150;
    names.extend(audit("cleaning", &cln));

    // The audit list: every counter family PRs 3–5 introduced, by name.
    // A rename or a dropped registration shows up as a failure here.
    for required in [
        // client core + hybrid-read outcome mirror
        "client.puts",
        "client.pure_hits",
        "client.fallbacks",
        "client.rpc_only",
        "client.rpc_retry",
        "client.op_retry",
        "client.get_retry",
        "client.put_reissue",
        // location cache
        "client.loc_cache.fills",
        "client.loc_cache.hits",
        "client.loc_cache.misses",
        "client.loc_cache.invalidations",
        // pipelined client
        "client.pipeline.submitted",
        "client.pipeline.completed",
        "client.pipeline.hazard_waits",
        "client.pipeline.window_waits",
        "client.pipeline.doorbells",
        // replication tier, named by the backup's seat: shard 0's backup
        // on the backup-only data node 1
        "n1.g0.repl.mirror_objects",
        "n1.g0.repl.mirror_bytes",
        "n1.g0.repl.mirror_batches",
        "n1.g0.repl.mirror_failures",
        "n1.g0.repl.applied_objects",
        "n1.g0.repl.applied_bytes",
        "n1.g0.repl.apply_failures",
        "n1.g0.repl.promotions",
        // log cleaner (progress + backpressure)
        "server.cleanings",
        "server.relocated",
        "server.reclaimed_versions",
        "server.bg_timeouts",
        "server.cleaner.stalls",
        "server.cleaner.park_ns",
        // CRC scrubber
        "scrub.passes",
        "scrub.scanned",
        "scrub.clean",
        "scrub.repaired",
        "scrub.repair_failures",
        "scrub.quarantined",
        "scrub.halted",
        "scrub.skipped_bytes",
        // fault injection
        "fabric.fault.dropped",
        "fabric.fault.duplicated",
        "fabric.fault.delayed",
        "fabric.fault.retrans",
        // tracer health
        "obs.trace_dropped",
        // sim-kernel execution telemetry (all backend-invariant: the one
        // backend-dependent counter, stack_bytes, is deliberately kept
        // out of reports so fiber and thread runs stay byte-identical)
        "sim.events_scheduled",
        "sim.events_dispatched",
        "sim.calls",
        "sim.chan_wakes",
        "sim.wakes_stale",
        "sim.ctx_switches",
        "sim.allocs",
        "sim.slab_reused",
        // transaction layer (client side)
        "client.txn.commits",
        "client.txn.conflicts",
        "client.txn.snap_captures",
        "client.txn.snap_gets",
        "client.txn.snap_retries",
        // transaction layer (server side)
        "server.txn.commits",
        "server.txn.aborts",
        "server.txn.prepares",
        "server.txn.decides",
        "server.txn.conflicts",
        "server.txn.snap_captures",
        "server.txn.snap_gets",
        "server.txn.snap_busy",
        // cluster layer: migration driver
        "cluster.migrate.started",
        "cluster.migrate.committed",
        "cluster.migrate.aborted",
        "cluster.migrate.snapshot_bytes",
        "cluster.migrate.snapshot_chunks",
        "cluster.migrate.fixup_bytes",
        "cluster.migrate.verify_diff_bytes",
        "cluster.migrate.drain_waits",
        // cluster layer: membership + clients
        "cluster.node_kills",
        "cluster.node_restarts",
        "cluster.client.retargets",
        "cluster.client.refreshes",
        // replicated metadata service
        "meta.elections",
        "meta.terms",
        "meta.commits",
        "meta.appends",
        "meta.heartbeats",
        "meta.node_downs",
        "meta.node_ups",
        "meta.promotions",
        "meta.rejects",
        "meta.getmaps",
    ] {
        assert!(
            names.iter().any(|n| n == required),
            "{required} missing from the registry snapshots"
        );
    }
}
