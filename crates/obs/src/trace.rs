//! Virtual-time span/event tracing with Chrome `trace_event` export.
//!
//! Spans cover operation *phases* (RPC alloc, RDMA write, CRC verify,
//! flush/drain, fallback RPC, cleaning); instant events mark discrete
//! occurrences (verifier timeouts, cleaner stage transitions, NVM crashes,
//! NIC verb completions). Timestamps come from the simulator's virtual
//! clock ([`efactory_sim::try_now`]; records emitted from outside a
//! simulated process — e.g. test drivers between `run_until` calls — are
//! stamped 0).
//!
//! The buffer is a bounded ring: when full, the oldest record is dropped
//! and counted, so tracing can stay on in long benchmark runs with O(1)
//! memory. Records carry a subsystem tag; a bitmask filter drops unwanted
//! subsystems at record time. Everything is deterministic — the export is
//! byte-identical across same-seed runs.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use efactory_sim::Nanos;

use crate::json::{Arr, Obj};

/// Which part of the system emitted a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subsystem {
    /// Request handler (server side).
    Server,
    /// Client library.
    Client,
    /// Background verifier.
    Verifier,
    /// Log cleaner.
    Cleaner,
    /// Persistent memory device.
    Pmem,
    /// NIC / fabric verbs.
    Nic,
    /// Replication tier (mirroring, backup apply, promotion).
    Repl,
    /// Cluster control plane: metadata service, membership, migration.
    Cluster,
}

impl Subsystem {
    /// All subsystems, in trace-lane order.
    pub const ALL: [Subsystem; 8] = [
        Subsystem::Server,
        Subsystem::Client,
        Subsystem::Verifier,
        Subsystem::Cleaner,
        Subsystem::Pmem,
        Subsystem::Nic,
        Subsystem::Repl,
        Subsystem::Cluster,
    ];

    /// Stable lane index (used as the Chrome-trace `tid`).
    pub fn lane(self) -> u32 {
        match self {
            Subsystem::Server => 0,
            Subsystem::Client => 1,
            Subsystem::Verifier => 2,
            Subsystem::Cleaner => 3,
            Subsystem::Pmem => 4,
            Subsystem::Nic => 5,
            Subsystem::Repl => 6,
            Subsystem::Cluster => 7,
        }
    }

    fn bit(self) -> u32 {
        1 << self.lane()
    }

    /// Category label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            Subsystem::Server => "server",
            Subsystem::Client => "client",
            Subsystem::Verifier => "verifier",
            Subsystem::Cleaner => "cleaner",
            Subsystem::Pmem => "pmem",
            Subsystem::Nic => "nic",
            Subsystem::Repl => "repl",
            Subsystem::Cluster => "cluster",
        }
    }
}

/// Span (has a duration) or instant event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A phase with start + duration.
    Span,
    /// A point-in-time event.
    Instant,
}

/// One recorded span or event.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Start (span) or occurrence (event) virtual time.
    pub ts: Nanos,
    /// Span duration; 0 for instants.
    pub dur: Nanos,
    /// Span or instant.
    pub kind: RecordKind,
    /// Emitting subsystem.
    pub sub: Subsystem,
    /// Phase/event name.
    pub name: &'static str,
    /// Operation id the record belongs to (0 = unattributed). Captured
    /// from the recording thread's [`OpScope`] when the span/event opens.
    pub op: u64,
    /// Optional numeric attributes.
    pub args: Vec<(&'static str, u64)>,
}

/// The op id active for the current simulated *process* (0 when none).
///
/// Stored in the sim kernel's per-process context slot, not a thread-local:
/// with the fiber executor every process shares the driver thread, and a
/// thread-local would leak one process's op id into the next at every park
/// point. Outside a simulation the kernel falls back to a per-thread slot,
/// so driver/test code behaves as before.
pub fn current_op() -> u64 {
    efactory_sim::op_ctx_get()
}

/// Marks the current process as executing op `op` until dropped; spans and
/// events recorded meanwhile inherit the id. Nests: the previous id is
/// restored on drop.
pub struct OpScope {
    prev: u64,
}

impl OpScope {
    /// Enter op `op` for the current process.
    pub fn enter(op: u64) -> OpScope {
        let prev = efactory_sim::op_ctx_replace(op);
        OpScope { prev }
    }
}

impl Drop for OpScope {
    fn drop(&mut self) {
        efactory_sim::op_ctx_replace(self.prev);
    }
}

struct Ring {
    buf: VecDeque<TraceRecord>,
    dropped: u64,
}

struct Inner {
    ring: Mutex<Ring>,
    mask: AtomicU32,
    capacity: usize,
}

/// Default ring capacity (records).
pub const DEFAULT_CAPACITY: usize = 65_536;

/// The span/event recorder. Cheap to clone; clones share the buffer.
#[derive(Clone)]
pub struct Tracer(Arc<Inner>);

impl Default for Tracer {
    fn default() -> Self {
        Tracer::with_capacity(DEFAULT_CAPACITY)
    }
}

fn clock() -> Nanos {
    efactory_sim::try_now().unwrap_or(0)
}

/// Chrome-trace lane (`tid`) used for overlay events appended via
/// [`Tracer::to_chrome_json_with_overlay`], one past the last subsystem.
pub const OVERLAY_LANE: u32 = Subsystem::ALL.len() as u32;

/// Virtual nanoseconds rendered as Chrome-trace microseconds with integer
/// math (byte-identical across same-seed runs).
pub fn chrome_us(ns: Nanos) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

impl Tracer {
    /// A tracer with the default capacity, all subsystems enabled.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// A tracer with a custom ring capacity.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer(Arc::new(Inner {
            ring: Mutex::new(Ring {
                buf: VecDeque::new(),
                dropped: 0,
            }),
            mask: AtomicU32::new(u32::MAX),
            capacity: capacity.max(1),
        }))
    }

    /// Record only the given subsystems (empty disables everything).
    pub fn filter(&self, subs: &[Subsystem]) {
        let mask = subs.iter().fold(0u32, |m, s| m | s.bit());
        self.0.mask.store(mask, Ordering::Relaxed);
    }

    /// Whether records from `sub` are currently kept.
    pub fn enabled(&self, sub: Subsystem) -> bool {
        self.0.mask.load(Ordering::Relaxed) & sub.bit() != 0
    }

    fn push(&self, rec: TraceRecord) {
        let mut ring = self.0.ring.lock().unwrap();
        if ring.buf.len() == self.0.capacity {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(rec);
    }

    /// Open a span for `name`; it is recorded (with its duration) when the
    /// guard drops. Filtered subsystems return an inert guard.
    pub fn span(&self, sub: Subsystem, name: &'static str) -> SpanGuard {
        SpanGuard {
            tracer: self.enabled(sub).then(|| self.clone()),
            sub,
            name,
            start: clock(),
            op: current_op(),
            args: Vec::new(),
        }
    }

    /// Record an already-measured span directly (explicit start + duration),
    /// attributed to the current thread's op. Used where the span window is
    /// known only after the fact, e.g. the pipelined client's per-op root
    /// spans ([submit, completion]) and NIC verb windows.
    pub fn record_span_at(
        &self,
        sub: Subsystem,
        name: &'static str,
        ts: Nanos,
        dur: Nanos,
        args: &[(&'static str, u64)],
    ) {
        if !self.enabled(sub) {
            return;
        }
        self.push(TraceRecord {
            ts,
            dur,
            kind: RecordKind::Span,
            sub,
            name,
            op: current_op(),
            args: args.to_vec(),
        });
    }

    /// Record an instant event.
    pub fn event(&self, sub: Subsystem, name: &'static str) {
        self.event_args(sub, name, &[]);
    }

    /// Record an instant event with numeric attributes.
    pub fn event_args(&self, sub: Subsystem, name: &'static str, args: &[(&'static str, u64)]) {
        if !self.enabled(sub) {
            return;
        }
        self.push(TraceRecord {
            ts: clock(),
            dur: 0,
            kind: RecordKind::Instant,
            sub,
            name,
            op: current_op(),
            args: args.to_vec(),
        });
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.0.ring.lock().unwrap().buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.0.ring.lock().unwrap().dropped
    }

    /// Snapshot of the buffered records, oldest first.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.0.ring.lock().unwrap().buf.iter().cloned().collect()
    }

    /// Buffered records with the given name (tests and assertions).
    pub fn records_named(&self, name: &str) -> Vec<TraceRecord> {
        self.records()
            .into_iter()
            .filter(|r| r.name == name)
            .collect()
    }

    /// Export as Chrome `trace_event` JSON (open in `chrome://tracing` or
    /// Perfetto). Timestamps are virtual microseconds rendered with integer
    /// math, so same-seed runs export byte-identical bytes.
    pub fn to_chrome_json(&self) -> String {
        self.to_chrome_json_with_overlay(&[])
    }

    /// Chrome export with extra pre-rendered event objects appended after
    /// the recorded ones — used for the tail-exemplar overlay lane
    /// (`tid` [`OVERLAY_LANE`]) produced by `critical_path`.
    pub fn to_chrome_json_with_overlay(&self, extra_events: &[String]) -> String {
        let mut events = Arr::new();
        for r in self.records() {
            let mut o = Obj::new()
                .str("name", r.name)
                .str("cat", r.sub.label())
                .str(
                    "ph",
                    match r.kind {
                        RecordKind::Span => "X",
                        RecordKind::Instant => "i",
                    },
                )
                .raw("ts", &chrome_us(r.ts));
            match r.kind {
                RecordKind::Span => o = o.raw("dur", &chrome_us(r.dur)),
                RecordKind::Instant => o = o.str("s", "g"),
            }
            o = o.u64("pid", 0).u64("tid", r.sub.lane() as u64);
            if r.op != 0 || !r.args.is_empty() {
                let mut args = Obj::new();
                if r.op != 0 {
                    args = args.u64("op", r.op);
                }
                for (k, v) in &r.args {
                    args = args.u64(k, *v);
                }
                o = o.raw("args", &args.finish());
            }
            events = events.raw(&o.finish());
        }
        for e in extra_events {
            events = events.raw(e);
        }
        Obj::new()
            .raw("traceEvents", &events.finish())
            .str("displayTimeUnit", "ns")
            .u64("droppedRecords", self.dropped())
            .finish()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("records", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// Completes its span when dropped. Attach numeric attributes with
/// [`SpanGuard::arg`].
pub struct SpanGuard {
    tracer: Option<Tracer>,
    sub: Subsystem,
    name: &'static str,
    start: Nanos,
    op: u64,
    args: Vec<(&'static str, u64)>,
}

impl SpanGuard {
    /// Attach a numeric attribute to the span.
    pub fn arg(&mut self, key: &'static str, value: u64) {
        if self.tracer.is_some() {
            self.args.push((key, value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(tracer) = self.tracer.take() else {
            return;
        };
        tracer.push(TraceRecord {
            ts: self.start,
            dur: clock().saturating_sub(self.start),
            kind: RecordKind::Span,
            sub: self.sub,
            name: self.name,
            op: self.op,
            args: std::mem::take(&mut self.args),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_events_record_in_order() {
        let t = Tracer::new();
        {
            let mut sp = t.span(Subsystem::Server, "rpc_alloc");
            sp.arg("vlen", 128);
        }
        t.event_args(Subsystem::Verifier, "invalidate", &[("off", 4096)]);
        let recs = t.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].name, "rpc_alloc");
        assert_eq!(recs[0].kind, RecordKind::Span);
        assert_eq!(recs[0].args, vec![("vlen", 128)]);
        assert_eq!(recs[1].name, "invalidate");
        assert_eq!(recs[1].kind, RecordKind::Instant);
    }

    #[test]
    fn filter_drops_disabled_subsystems() {
        let t = Tracer::new();
        t.filter(&[Subsystem::Client]);
        t.event(Subsystem::Server, "ignored");
        t.span(Subsystem::Verifier, "ignored_span");
        t.event(Subsystem::Client, "kept");
        assert_eq!(t.len(), 1);
        assert_eq!(t.records()[0].name, "kept");
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let t = Tracer::with_capacity(3);
        for _ in 0..5 {
            t.event(Subsystem::Pmem, "tick");
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn chrome_export_shape() {
        let t = Tracer::new();
        t.event(Subsystem::Cleaner, "clean_start");
        let json = t.to_chrome_json();
        assert!(json.starts_with(r#"{"traceEvents":["#), "{json}");
        assert!(json.contains(r#""name":"clean_start""#));
        assert!(json.contains(r#""cat":"cleaner""#));
        assert!(json.contains(r#""ph":"i""#));
        assert!(json.ends_with(r#""displayTimeUnit":"ns","droppedRecords":0}"#));
    }

    #[test]
    fn timestamps_outside_simulation_are_zero() {
        let t = Tracer::new();
        t.event(Subsystem::Nic, "e");
        assert_eq!(t.records()[0].ts, 0);
    }

    #[test]
    fn op_scope_attributes_and_nests() {
        let t = Tracer::new();
        assert_eq!(current_op(), 0);
        t.event(Subsystem::Client, "before");
        {
            let _outer = OpScope::enter(7);
            assert_eq!(current_op(), 7);
            t.span(Subsystem::Client, "outer_span");
            {
                let _inner = OpScope::enter(9);
                t.event(Subsystem::Nic, "inner_event");
            }
            assert_eq!(current_op(), 7);
        }
        assert_eq!(current_op(), 0);
        // The un-bound span guard drops (and records) immediately, before
        // the nested event.
        let recs = t.records();
        assert_eq!(recs[0].op, 0);
        assert_eq!(recs[1].name, "outer_span");
        assert_eq!(recs[1].op, 7, "span captures op at open");
        assert_eq!(recs[2].op, 9, "nested scope wins while active");
    }

    #[test]
    fn record_span_at_is_direct_and_attributed() {
        let t = Tracer::new();
        let _scope = OpScope::enter(3);
        t.record_span_at(Subsystem::Nic, "send", 100, 40, &[("bytes", 64)]);
        let recs = t.records();
        assert_eq!(recs.len(), 1);
        assert_eq!((recs[0].ts, recs[0].dur, recs[0].op), (100, 40, 3));
        assert_eq!(recs[0].kind, RecordKind::Span);
        t.filter(&[Subsystem::Client]);
        t.record_span_at(Subsystem::Nic, "send", 0, 0, &[]);
        assert_eq!(t.len(), 1, "filtered subsystem records nothing");
    }

    #[test]
    fn op_ids_render_in_chrome_args_and_overlay_appends() {
        let t = Tracer::new();
        {
            let _scope = OpScope::enter(5);
            t.event(Subsystem::Client, "tick");
        }
        let json = t.to_chrome_json();
        assert!(json.contains(r#""args":{"op":5}"#), "{json}");
        let overlay =
            t.to_chrome_json_with_overlay(&[r#"{"name":"exemplar","tid":8}"#.to_string()]);
        assert!(overlay.contains(r#"{"name":"exemplar","tid":8}"#));
        assert!(overlay.ends_with(r#""displayTimeUnit":"ns","droppedRecords":0}"#));
    }
}
