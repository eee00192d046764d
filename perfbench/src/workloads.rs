//! The four benchmark workloads as harness specs. The seed is the only
//! input; everything else is fixed here, so the program sees exactly the
//! spec a seed generates.

use efactory_harness::cluster::TXN_KEYS;
use efactory_harness::{Cleaning, ExperimentSpec, SystemKind};
use efactory_sim::ExecModel;
use efactory_ycsb::{Mix, WorkloadConfig};

/// Build the spec for workload `name` at `seed`; `tiny` shrinks record and
/// op counts for the benchmark's self-tests. `None` for an unknown name.
pub fn spec(name: &str, seed: u64, tiny: bool) -> Option<ExperimentSpec> {
    let mut s = ExperimentSpec::paper(SystemKind::EFactory, Mix::A, 256);
    s.seed = seed;
    // Every client runs as a fiber on the one driver thread, whatever
    // `EF_SIM_EXEC` says.
    s.exec = Some(ExecModel::Fiber);
    // (records, ops per client) at full size and tiny size.
    let (records, ops, tiny_records, tiny_ops) = match name {
        "ycsb-a-repl" => {
            s.shards = 4;
            s.replicas = 1;
            (100_000, 3_000, 512, 40)
        }
        // YCSB-A rather than update-only, so the reads that race the
        // cleaner are measured too and every workload reports GET latency.
        "update-clean" => {
            s.cleaning = Cleaning::Enabled {
                threshold: 0.75,
                pool_len: if tiny { 128 << 10 } else { 2 << 20 },
            };
            (4_096, 12_000, 128, 60)
        }
        "read-pipelined" => {
            s.mix = Mix::B;
            s.value_len = 64;
            s.clients = 4;
            s.window = 16;
            s.doorbell_batch = 16;
            s.loc_cache = true;
            (4_096, 60_000, 256, 200)
        }
        "ycsb-t-cluster" => {
            s.mix = Mix::T;
            s.nodes = 2;
            s.shards = 4;
            (4_096, 12_800, 256, 30)
        }
        // Self-test only: `fault_at` without replicas makes the harness
        // panic inside the simulation.
        "selftest-panic" => {
            s.fault_at = Some(1_000);
            (64, 10, 64, 10)
        }
        _ => return None,
    };
    (s.record_count, s.ops_per_client) = if tiny {
        (tiny_records, tiny_ops)
    } else {
        (records, ops)
    };
    Some(s)
}

/// Ops per client in the traced run. An unbounded trace ring holds every
/// record in memory, so traced runs use a quarter of the ops; folding the
/// trace joins every PUT to every replication span, preload included, so
/// `ycsb-a-repl` traces a tenth to keep its fold to seconds.
pub fn traced_ops(name: &str, spec: &ExperimentSpec) -> usize {
    match name {
        "ycsb-a-repl" => spec.ops_per_client / 10,
        _ => spec.ops_per_client / 4,
    }
}

/// The op-stream configuration the harness derives from `spec`.
pub fn workload_config(spec: &ExperimentSpec) -> WorkloadConfig {
    WorkloadConfig {
        mix: spec.mix,
        record_count: spec.record_count,
        key_len: spec.key_len,
        value_len: spec.value_len,
        txn_keys: TXN_KEYS,
    }
}
