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
//! A tracer is on or off. The default tracer is off: every record call
//! returns at one branch, reading neither the virtual clock nor the op
//! context, and nothing is kept. [`Tracer::with_capacity`] (or
//! [`Tracer::new`]) turns one on: its buffer is a bounded ring — when full,
//! the oldest record is dropped and counted, so tracing can stay on in long
//! benchmark runs with O(1) memory. Records hold their args inline and
//! allocate nothing. Everything is deterministic — the export is
//! byte-identical across same-seed runs.

use std::collections::VecDeque;
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

/// Most numeric attributes one record carries: the widest sites are the
/// client's `op` roots (kind, shard, key_fp, retries) and the server's txn
/// stage spans (qp, req, txn, puts).
pub const MAX_ARGS: usize = 4;

/// A record's numeric attributes, held inline (up to [`MAX_ARGS`]) so
/// recording allocates nothing. Derefs to the `(key, value)` slice.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Args {
    len: u8,
    kv: [(&'static str, u64); MAX_ARGS],
}

impl Args {
    /// No attributes.
    const EMPTY: Args = Args {
        len: 0,
        kv: [("", 0); MAX_ARGS],
    };

    /// Append one attribute. Panics past [`MAX_ARGS`].
    fn push(&mut self, key: &'static str, value: u64) {
        let i = usize::from(self.len);
        assert!(
            i < MAX_ARGS,
            "a trace record carries at most {MAX_ARGS} args"
        );
        self.kv[i] = (key, value);
        self.len += 1;
    }
}

impl From<&[(&'static str, u64)]> for Args {
    /// Copy `args` inline. Panics past [`MAX_ARGS`].
    #[inline]
    fn from(args: &[(&'static str, u64)]) -> Args {
        assert!(
            args.len() <= MAX_ARGS,
            "a trace record carries at most {MAX_ARGS} args"
        );
        Args {
            len: args.len() as u8,
            kv: std::array::from_fn(|i| args.get(i).copied().unwrap_or(("", 0))),
        }
    }
}

impl std::ops::Deref for Args {
    type Target = [(&'static str, u64)];

    fn deref(&self) -> &Self::Target {
        &self.kv[..usize::from(self.len)]
    }
}

impl std::fmt::Debug for Args {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One recorded span or event.
#[derive(Debug, Clone, Copy)]
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
    pub args: Args,
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

/// What an op's root `"op"` span measured. The root's `kind` arg is the
/// kind's code, its index in [`RootKind::LABELS`]: the one table of op
/// kinds, shared by the root writers and the critical-path fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootKind {
    /// A plain GET.
    Get,
    /// A plain PUT.
    Put,
    /// A delete.
    Del,
    /// A transaction (multi-key commit or read-modify-write).
    Txn,
    /// A snapshot read of a key set (the capture itself is not an op).
    Snap,
}

impl RootKind {
    /// Each kind's export label, indexed by its code.
    pub const LABELS: [&'static str; 5] = ["get", "put", "del", "txn", "snap"];

    /// The root's `kind` arg.
    pub fn code(self) -> u64 {
        self as u64
    }

    /// The label of kind code `code` (`"unknown"` outside the table).
    pub fn label(code: u64) -> &'static str {
        usize::try_from(code)
            .ok()
            .and_then(|i| Self::LABELS.get(i))
            .map_or("unknown", |l| l)
    }
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
    capacity: usize,
}

impl Inner {
    fn ring(&self) -> std::sync::MutexGuard<'_, Ring> {
        self.ring
            .lock()
            .expect("a thread panicked while recording a trace")
    }

    fn push(&self, rec: &TraceRecord) {
        let mut ring = self.ring();
        if ring.buf.len() == self.capacity {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(*rec);
    }
}

/// Ring capacity (records) of [`Tracer::new`].
pub const DEFAULT_CAPACITY: usize = 65_536;

/// The span/event recorder. Cheap to clone; clones share the buffer. The
/// default tracer is off and keeps nothing.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<Inner>>);

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
    /// A tracer that is on, with a ring of [`DEFAULT_CAPACITY`] records.
    pub fn new() -> Tracer {
        Tracer::with_capacity(DEFAULT_CAPACITY)
    }

    /// A tracer that is on, with a ring of `capacity` records.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer(Some(Arc::new(Inner {
            ring: Mutex::new(Ring {
                buf: VecDeque::new(),
                dropped: 0,
            }),
            capacity: capacity.max(1),
        })))
    }

    /// Whether this tracer keeps records.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Open a span for `name`; it is recorded (with its duration) when the
    /// guard drops. An off tracer returns an inert guard.
    #[inline]
    pub fn span(&self, sub: Subsystem, name: &'static str) -> SpanGuard {
        SpanGuard(self.0.as_ref().map(|inner| OpenSpan {
            inner: Arc::clone(inner),
            rec: TraceRecord {
                ts: clock(),
                dur: 0,
                kind: RecordKind::Span,
                sub,
                name,
                op: current_op(),
                args: Args::EMPTY,
            },
        }))
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
        let Some(inner) = &self.0 else {
            return;
        };
        inner.push(&TraceRecord {
            ts,
            dur,
            kind: RecordKind::Span,
            sub,
            name,
            op: current_op(),
            args: Args::from(args),
        });
    }

    /// Record an instant event.
    pub fn event(&self, sub: Subsystem, name: &'static str) {
        self.event_args(sub, name, &[]);
    }

    /// Record an instant event with numeric attributes.
    pub fn event_args(&self, sub: Subsystem, name: &'static str, args: &[(&'static str, u64)]) {
        let Some(inner) = &self.0 else {
            return;
        };
        inner.push(&TraceRecord {
            ts: clock(),
            dur: 0,
            kind: RecordKind::Instant,
            sub,
            name,
            op: current_op(),
            args: Args::from(args),
        });
    }

    /// Number of buffered records (0 when off).
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |i| i.ring().buf.len())
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted by the ring bound (0 when off).
    pub fn dropped(&self) -> u64 {
        self.0.as_ref().map_or(0, |i| i.ring().dropped)
    }

    /// Snapshot of the buffered records, oldest first (empty when off).
    pub fn records(&self) -> Vec<TraceRecord> {
        self.0
            .as_ref()
            .map_or_else(Vec::new, |i| i.ring().buf.iter().copied().collect())
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
                for (k, v) in r.args.iter() {
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
/// [`SpanGuard::arg`]. Inert when its tracer is off.
pub struct SpanGuard(Option<OpenSpan>);

/// An open span: its record, complete but for the duration.
struct OpenSpan {
    inner: Arc<Inner>,
    rec: TraceRecord,
}

impl SpanGuard {
    /// Attach a numeric attribute to the span. Panics past [`MAX_ARGS`].
    #[inline]
    pub fn arg(&mut self, key: &'static str, value: u64) {
        if let Some(open) = &mut self.0 {
            open.rec.args.push(key, value);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(open) = &mut self.0 {
            open.rec.dur = clock().saturating_sub(open.rec.ts);
            open.inner.push(&open.rec);
        }
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
        assert_eq!(*recs[0].args, [("vlen", 128)]);
        assert_eq!(recs[1].name, "invalidate");
        assert_eq!(recs[1].kind, RecordKind::Instant);
    }

    #[test]
    fn default_tracer_is_off_and_keeps_nothing() {
        let t = Tracer::default();
        assert!(!t.is_on() && Tracer::new().is_on());
        {
            let _scope = OpScope::enter(4);
            let mut sp = t.span(Subsystem::Server, "rpc_alloc");
            sp.arg("vlen", 128);
        }
        t.event_args(Subsystem::Verifier, "invalidate", &[("off", 4096)]);
        t.record_span_at(Subsystem::Nic, "send", 100, 40, &[("bytes", 64)]);
        assert!(t.is_empty() && t.records().is_empty());
        assert_eq!(t.dropped(), 0);
        assert_eq!(
            t.to_chrome_json(),
            r#"{"traceEvents":[],"displayTimeUnit":"ns","droppedRecords":0}"#
        );
    }

    #[test]
    fn args_hold_up_to_max_inline() {
        let t = Tracer::new();
        {
            let mut sp = t.span(Subsystem::Client, "op");
            for (i, k) in ["kind", "shard", "key_fp", "retries"]
                .into_iter()
                .enumerate()
            {
                sp.arg(k, i as u64);
            }
        }
        let all = [("a", 1), ("b", 2), ("c", 3), ("d", 4)];
        t.event_args(Subsystem::Server, "e", &all);
        let recs = t.records();
        assert_eq!(recs[0].args.len(), MAX_ARGS);
        assert_eq!(recs[0].args[3], ("retries", 3));
        assert_eq!(*recs[1].args, all);
    }

    #[test]
    #[should_panic(expected = "at most 4 args")]
    fn args_past_max_panic() {
        let mut sp = Tracer::new().span(Subsystem::Client, "op");
        for k in ["kind", "shard", "key_fp", "retries", "extra"] {
            sp.arg(k, 0);
        }
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let t = Tracer::with_capacity(3);
        for i in 0..5 {
            t.event_args(Subsystem::Pmem, "tick", &[("i", i)]);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let kept: Vec<u64> = t.records().iter().map(|r| r.args[0].1).collect();
        assert_eq!(kept, [2, 3, 4], "the newest records survive, oldest first");
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
    fn root_kinds_are_one_table_of_codes_and_labels() {
        use RootKind::*;
        let labels = [Get, Put, Del, Txn, Snap].map(|k| RootKind::label(k.code()));
        assert_eq!(labels, ["get", "put", "del", "txn", "snap"]);
        assert_eq!(labels, RootKind::LABELS);
        assert_eq!(RootKind::label(5), "unknown");
        assert_eq!(RootKind::label(u64::MAX), "unknown");
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
        assert_eq!(*recs[0].args, [("bytes", 64)]);
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
