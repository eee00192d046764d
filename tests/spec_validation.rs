//! `ExperimentSpec::validate` rejects every spec combination the harness
//! cannot run with a typed [`SpecError`], before any simulation starts —
//! one test per error variant, plus the shapes it must accept.

use efactory_harness::{run, Cleaning, ExperimentSpec, SpecError, SystemKind};
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

/// `spec` with `edit` applied must fail validation with `want`.
fn rejects(edit: impl FnOnce(&mut ExperimentSpec), want: SpecError) {
    let mut s = tiny(SystemKind::EFactory, Mix::A);
    edit(&mut s);
    assert_eq!(s.validate(), Err(want));
}

#[test]
fn validate_accepts_every_efactory_shape() {
    for (shards, replicas, window, nodes) in [(1, 0, 1, 1), (4, 1, 16, 1), (4, 0, 16, 2)] {
        let mut s = tiny(SystemKind::EFactory, Mix::TxnOnly);
        (s.shards, s.replicas, s.window, s.nodes) = (shards, replicas, window, nodes);
        assert_eq!(s.validate(), Ok(()));
    }
}

#[test]
fn validate_rejects_an_empty_topology() {
    rejects(|s| s.shards = 0, SpecError::EmptyTopology);
    rejects(|s| s.nodes = 0, SpecError::EmptyTopology);
}

#[test]
fn validate_rejects_two_backups() {
    rejects(|s| s.replicas = 2, SpecError::TooManyReplicas(2));
}

#[test]
fn validate_accepts_a_replicated_cluster() {
    // Backups on several data nodes: each sits on its owner's next node.
    let mut s = tiny(SystemKind::EFactory, Mix::A);
    (s.shards, s.nodes, s.replicas) = (2, 2, 1);
    assert_eq!(s.validate(), Ok(()));
    assert_eq!(run(&s).total_ops, (s.clients * s.ops_per_client) as u64);
}

#[test]
fn validate_rejects_a_sharded_or_pipelined_baseline() {
    for edit in [
        |s: &mut ExperimentSpec| s.shards = 2,
        |s: &mut ExperimentSpec| s.nodes = 2,
        |s: &mut ExperimentSpec| s.replicas = 1,
        |s: &mut ExperimentSpec| s.window = 4,
    ] {
        let mut s = tiny(SystemKind::Erda, Mix::A);
        edit(&mut s);
        assert_eq!(
            s.validate(),
            Err(SpecError::BaselineTopology(SystemKind::Erda))
        );
    }
}

#[test]
fn validate_rejects_transactions_on_a_baseline() {
    let s = tiny(SystemKind::Saw, Mix::TxnOnly);
    assert_eq!(s.validate(), Err(SpecError::BaselineTxn(SystemKind::Saw)));
    let mut s = tiny(SystemKind::Saw, Mix::A);
    s.snap_readers = 1;
    assert_eq!(s.validate(), Err(SpecError::BaselineTxn(SystemKind::Saw)));
}

#[test]
fn validate_rejects_pipelined_snapshot_reads() {
    rejects(
        |s| (s.mix, s.window) = (Mix::T, 8),
        SpecError::PipelinedSnapReads,
    );
}

#[test]
fn validate_rejects_a_fault_without_a_backup() {
    rejects(|s| s.fault_at = Some(1_000), SpecError::FaultNeedsReplicas);
}

#[test]
fn validate_rejects_a_migration_without_a_second_node() {
    rejects(|s| s.migrate_at = Some(1_000), SpecError::MigrateNeedsNodes);
}

#[test]
fn validate_rejects_a_migration_with_backups() {
    // The next node, where the migration would go, holds shard 0's backup.
    rejects(
        |s| (s.migrate_at, s.nodes, s.replicas) = (Some(1_000), 3, 1),
        SpecError::MigrateWithBackups,
    );
}

#[test]
#[should_panic(expected = "invalid experiment spec: fault_at requires replicas > 0")]
fn run_panics_on_an_invalid_spec_before_simulating() {
    let mut s = tiny(SystemKind::EFactory, Mix::A);
    s.fault_at = Some(1_000);
    run(&s);
}
