//! # efactory-obs — deterministic tracing and metrics
//!
//! Observability layer for the eFactory reproduction. Everything in this
//! crate is **deterministic**: timestamps come from the simulator's virtual
//! clock, metric iteration order is lexicographic, and the JSON emitters
//! format numbers with integer math — so two runs with the same seed produce
//! byte-identical traces and reports.
//!
//! Three pillars:
//!
//! * [`metrics`] — named [`Counter`]s collected in a [`Registry`].
//! * [`trace`] — a [`Tracer`] recording *spans* (operation phases with a
//!   duration) and *instant events*, stamped with [`efactory_sim::try_now`],
//!   kept in a bounded ring buffer, and exportable as Chrome `trace_event`
//!   JSON (load in `chrome://tracing` or Perfetto). A tracer is on or off;
//!   an off tracer keeps nothing and costs one branch per record call.
//! * [`json`] — a tiny dependency-free JSON writer used by the exporters and
//!   by the harness's run reports.
//!
//! [`nearest_rank`] is the one quantile rule: the harness's latency
//! summaries and the fold's percentile cohorts both report the exact
//! nearest-rank sample.
//!
//! The [`Obs`] bundle (one registry + one tracer) is what gets threaded
//! through server/client configs; it is cheap to clone (two `Arc`s). A
//! default `Obs` records metrics only, no trace: a run pays for tracing only
//! when it asks for it with [`Obs::with_trace_capacity`].

pub mod critical_path;
pub mod json;
pub mod metrics;
pub mod trace;

pub use critical_path::{Breakdown, FoldConfig};
pub use metrics::{Counter, Registry};
pub use trace::{OpScope, RecordKind, RootKind, SpanGuard, Subsystem, TraceRecord, Tracer};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use efactory_sim::Nanos;

/// The nearest-rank `num/den` quantile of a **sorted** slice: the sample at
/// rank ⌈num·n/den⌉ (1-based, at least 1), in integer math so no float
/// rounding moves the rank. An empty slice yields 0 — total by design, so
/// zero-op runs summarize to an explicit zero instead of aborting.
pub fn nearest_rank(sorted: &[Nanos], num: u64, den: u64) -> Nanos {
    assert!(num <= den, "quantile {num}/{den} above 1");
    let n = sorted.len() as u64;
    if n == 0 {
        return 0;
    }
    sorted[(num * n).div_ceil(den).max(1) as usize - 1]
}

/// One observability context: a metrics registry plus a tracer. Threaded
/// through `ServerConfig`/`ClientConfig` and created per experiment by the
/// harness so concurrent experiments never share state. The default
/// context records metrics only; its tracer is off.
#[derive(Clone, Default)]
pub struct Obs {
    /// Named counters.
    pub registry: Registry,
    /// Span/event recorder (off unless built by [`Obs::with_trace_capacity`]).
    pub tracer: Tracer,
    /// Monotonic op-id source shared by all clones; ids start at 1 (0 is
    /// "unattributed" in trace records).
    op_source: Arc<AtomicU64>,
}

impl Obs {
    /// A fresh context that records metrics only (the same as `default`).
    pub fn new() -> Obs {
        Obs::default()
    }

    /// A context that also traces, into a ring of up to `capacity` records
    /// — the one way a run opts in to tracing (the breakdown probe, whose
    /// folds need every per-op span retained, and the trace tests).
    pub fn with_trace_capacity(capacity: usize) -> Obs {
        Obs {
            tracer: Tracer::with_capacity(capacity),
            ..Obs::default()
        }
    }

    /// Allocate the next operation id (deterministic: ids are handed out in
    /// program order, which the simulator serializes).
    pub fn next_op_id(&self) -> u64 {
        self.op_source.fetch_add(1, Ordering::Relaxed) + 1
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("metrics", &self.registry.len())
            .field("trace_records", &self.tracer.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::nearest_rank;

    #[test]
    fn nearest_rank_is_exact_at_every_count() {
        // p99.9 of 16,000 samples is the 15,984th. In f64, 99.9 / 100 ×
        // 16,000 is 15,984.000000000002, so a float ceil picks the 15,985th.
        let v: Vec<u64> = (1..=16_000).collect();
        assert_eq!(nearest_rank(&v, 999, 1000), 15_984);
        assert_eq!(nearest_rank(&v, 50, 100), 8_000);
        assert_eq!(nearest_rank(&v, 99, 100), 15_840);
        assert_eq!(nearest_rank(&v, 0, 100), 1, "rank is at least 1");
        assert_eq!(nearest_rank(&v, 100, 100), 16_000);
        assert_eq!(nearest_rank(&[], 999, 1000), 0);
    }
}
