//! # efactory-harness — the experiment driver
//!
//! Reproduces the paper's evaluation methodology (§5): a server plus N
//! closed-loop clients "issuing operations as fast as possible" over YCSB
//! workloads, measured in the simulator's virtual time so results are
//! deterministic and independent of the host machine.
//!
//! * [`cluster`] — build any of the six systems, load records, run the
//!   workload, collect latency samples and throughput.
//! * [`stats`] — exact nearest-rank percentile and mean summaries.
//! * [`table`] — fixed-width table rendering for the figures of the
//!   `bench` binary in `efactory-bench`.
//! * [`report`] — versioned JSON run reports (`--json <path>` on every
//!   `bench` probe and figure).

pub mod checker;
pub mod cluster;
pub mod report;
pub mod stats;
pub mod table;

pub use cluster::{
    run, run_observed, run_with_cost, Cleaning, ExperimentSpec, HostSplit, RunResult, SpecError,
    SystemKind,
};
pub use report::{Bound, Report};
pub use stats::LatencyStats;
pub use table::Table;

#[cfg(test)]
mod tests {
    use super::*;
    use efactory_ycsb::Mix;

    fn tiny(system: SystemKind, mix: Mix) -> ExperimentSpec {
        ExperimentSpec {
            system,
            mix,
            value_len: 128,
            key_len: 16,
            clients: 2,
            ops_per_client: 60,
            record_count: 64,
            seed: 7,
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

    #[test]
    fn every_system_completes_a_mixed_workload() {
        for system in SystemKind::comparison() {
            let r = run(&tiny(system, Mix::A));
            assert_eq!(r.total_ops, 120, "{system:?}");
            assert!(r.mops > 0.0, "{system:?}");
            assert!(r.get.count + r.put.count == 120, "{system:?}");
            assert!(r.elapsed_ns > 0, "{system:?}");
        }
    }

    #[test]
    fn read_only_workload_measures_only_gets() {
        let r = run(&tiny(SystemKind::EFactory, Mix::C));
        assert_eq!(r.put.count, 0);
        assert_eq!(r.get.count, 120);
        // With a drained verifier, read-only traffic should never need the
        // server (pure one-sided path).
        assert_eq!(r.server_rpc_gets, 0, "unexpected RPC fallbacks");
    }

    #[test]
    fn efactory_no_hr_routes_reads_through_server() {
        let r = run(&tiny(SystemKind::EFactoryNoHr, Mix::C));
        assert_eq!(r.server_rpc_gets, 120);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(&tiny(SystemKind::EFactory, Mix::B));
        let b = run(&tiny(SystemKind::EFactory, Mix::B));
        assert_eq!(a.elapsed_ns, b.elapsed_ns);
        assert_eq!(a.get.p50_ns, b.get.p50_ns);
        assert_eq!(a.put.p99_ns, b.put.p99_ns);
        assert_eq!(a.mops, b.mops);
    }

    #[test]
    fn update_only_exercises_puts_for_every_system() {
        for system in [SystemKind::CaNoper, SystemKind::Rpc, SystemKind::Saw] {
            let r = run(&tiny(system, Mix::UpdateOnly));
            assert_eq!(r.get.count, 0, "{system:?}");
            assert_eq!(r.put.count, 120, "{system:?}");
        }
    }

    fn counter(r: &RunResult, name: &str) -> u64 {
        r.counters
            .iter()
            .filter(|(n, _)| n == name || n.ends_with(&format!(".{name}")))
            .map(|(_, v)| v)
            .sum()
    }

    #[test]
    fn txn_only_mix_commits_every_transaction() {
        let r = run(&tiny(SystemKind::EFactory, Mix::TxnOnly));
        // 2 clients × 60 txns × 4 keys each: one latency sample per key.
        assert_eq!(r.put.count, 480);
        assert_eq!(r.get.count, 0);
        assert_eq!(counter(&r, "client.txn.commits"), 120);
        assert_eq!(counter(&r, "server.txn.commits"), 120);
        assert_eq!(counter(&r, "server.txn.aborts"), 0);
    }

    #[test]
    fn ycsb_t_mix_runs_all_three_op_classes() {
        let r = run(&tiny(SystemKind::EFactory, Mix::T));
        assert!(counter(&r, "client.txn.commits") > 0);
        assert!(counter(&r, "client.txn.snap_captures") > 0);
        assert!(counter(&r, "client.txn.snap_gets") > 0);
        assert!(r.get.count > 0 && r.put.count > 0);
    }

    #[test]
    fn txn_runs_are_deterministic() {
        let a = run(&tiny(SystemKind::EFactory, Mix::T));
        let b = run(&tiny(SystemKind::EFactory, Mix::T));
        assert_eq!(a.elapsed_ns, b.elapsed_ns);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn txn_mix_composes_with_shards_and_windows() {
        let mut sharded = tiny(SystemKind::EFactory, Mix::TxnOnly);
        sharded.shards = 4;
        let r = run(&sharded);
        assert_eq!(r.put.count, 480);
        assert_eq!(counter(&r, "client.txn.commits"), 120);

        let mut windowed = tiny(SystemKind::EFactory, Mix::TxnOnly);
        windowed.window = 8;
        let r = run(&windowed);
        assert_eq!(r.put.count, 480);
        assert_eq!(counter(&r, "client.txn.commits"), 120);
    }

    #[test]
    fn snapshot_readers_ride_along_with_writers() {
        let mut s = tiny(SystemKind::EFactory, Mix::UpdateOnly);
        s.snap_readers = 2;
        let r = run(&s);
        assert_eq!(r.put.count, 120, "writer workload must be unaffected");
        assert!(counter(&r, "client.txn.snap_captures") > 0);
        assert!(counter(&r, "client.txn.snap_gets") > 0);
    }

    #[test]
    fn cleaning_mode_triggers_cleanings() {
        let spec = ExperimentSpec {
            system: SystemKind::EFactory,
            mix: Mix::UpdateOnly,
            value_len: 512,
            key_len: 16,
            clients: 2,
            ops_per_client: 200,
            record_count: 32,
            seed: 7,
            // ~232 KB of writes through 64 KB pools: several cleanings.
            cleaning: Cleaning::Enabled {
                threshold: 0.5,
                pool_len: 64 * 1024,
            },
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
        };
        let r = run(&spec);
        assert!(r.cleanings >= 1, "expected cleaning, got {r:?}");
        assert_eq!(r.total_ops, 400);
    }
}
