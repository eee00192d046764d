//! Critical-path folding: per-op causal latency decomposition.
//!
//! Every client operation records one root `"op"` span, around all of its
//! attempts, plus attributed child spans (RPC windows, NIC verbs, backoffs)
//! via the tracer's op-id propagation ([`crate::trace::OpScope`]).
//! Server-side handler spans carry `(qp, req)` args and are joined to the
//! op's `"rpc"` child; verifier and replication work is joined by log
//! offset and reported as *off-path* time (the paper's async-persistence
//! claim: it must not appear inside the op's measured latency).
//!
//! [`fold`] turns the flat record buffer into:
//!
//! * per-op **segment timelines** — an interval sweep over the op's window
//!   where the innermost active phase wins and uncovered time becomes
//!   `client_gap` queueing, so segment durations sum to the measured
//!   latency *exactly* (the conservation-of-time invariant);
//! * **phase totals** per (subsystem, phase, service/queue/retry);
//! * **percentile attribution** — for the p50/p99/p99.9 cohorts, each
//!   subsystem's share of total latency, identifying which subsystem grows
//!   in the tail;
//! * **tail exemplars** — the K worst ops with their full timelines,
//!   rendered into the run report and a Chrome-trace overlay lane.
//!
//! Everything is integer math on the virtual clock: folds of same-seed
//! runs are byte-identical.

use std::collections::HashMap;

use efactory_sim::Nanos;

use crate::json::{Arr, Obj};
use crate::nearest_rank;
use crate::trace::{chrome_us, RecordKind, RootKind, Subsystem, TraceRecord, OVERLAY_LANE};

/// Subsystem lanes an op's time is attributed to.
const LANES: usize = Subsystem::ALL.len();

/// How a phase spends time on the op's critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PhaseKind {
    /// Productive work (verbs, handler execution, CRC, transit).
    Service,
    /// Waiting for a resource (server dispatch queue, pipeline window,
    /// unattributed client gaps).
    Queue,
    /// Backoff before a re-attempt.
    Retry,
}

impl PhaseKind {
    /// Stable label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            PhaseKind::Service => "service",
            PhaseKind::Queue => "queue",
            PhaseKind::Retry => "retry",
        }
    }
}

/// Phase taxonomy: how a phase name maps onto service/queue/retry time.
pub fn phase_kind(name: &str) -> PhaseKind {
    match name {
        "backoff" => PhaseKind::Retry,
        "req_queue" | "park" | "client_gap" | "window_wait" => PhaseKind::Queue,
        _ => PhaseKind::Service,
    }
}

/// One attributed slice of an op's timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Owning subsystem.
    pub sub: Subsystem,
    /// Phase name (span name or synthetic: `req_queue`, `reply_transit`,
    /// `client_gap`).
    pub phase: &'static str,
    /// Service / queue / retry classification.
    pub kind: PhaseKind,
    /// Virtual start time.
    pub start: Nanos,
    /// Duration.
    pub dur: Nanos,
}

/// Compact per-op result: identity plus per-subsystem attributed time.
#[derive(Debug, Clone)]
pub struct OpSummary {
    /// Operation id.
    pub op: u64,
    /// The root's `kind` arg, a [`RootKind`] code.
    pub kind_code: u64,
    /// Shard the op routed to.
    pub shard: u64,
    /// Key fingerprint.
    pub key_fp: u64,
    /// Retries observed while the op ran.
    pub retries: u64,
    /// Op start (root span open).
    pub start: Nanos,
    /// Measured latency (root span duration).
    pub latency: Nanos,
    /// Attributed nanoseconds per subsystem lane (sums to `latency`).
    pub sub_ns: [u64; LANES],
}

impl OpSummary {
    /// Op-kind label (`"unknown"` for a code outside [`RootKind`]).
    pub fn kind_label(&self) -> &'static str {
        RootKind::label(self.kind_code)
    }
}

/// A worst-op capture: summary plus full timelines.
#[derive(Debug, Clone)]
pub struct Exemplar {
    /// Identity and totals.
    pub summary: OpSummary,
    /// Critical-path segments (sum of `dur` ≡ `summary.latency`).
    pub segments: Vec<Segment>,
    /// Off-path work joined by log offset (verifier CRC/flush, repl
    /// mirror) — durable-ization the async design keeps off the op.
    pub offpath: Vec<Segment>,
}

/// Aggregate time for one (subsystem, phase) pair.
#[derive(Debug, Clone)]
pub struct PhaseTotal {
    /// Owning subsystem.
    pub sub: Subsystem,
    /// Phase name.
    pub phase: &'static str,
    /// Classification.
    pub kind: PhaseKind,
    /// Total attributed nanoseconds across ops.
    pub total_ns: u64,
    /// Number of segments.
    pub count: u64,
}

/// Subsystem shares for one percentile cohort.
#[derive(Debug, Clone)]
pub struct PercentileRow {
    /// Cohort label (`p50`, `p99`, `p999`).
    pub label: &'static str,
    /// Nearest-rank latency threshold defining the cohort.
    pub threshold_ns: Nanos,
    /// Ops at or above the threshold.
    pub cohort: u64,
    /// Per-lane share of the cohort's total latency, in hundredths of a
    /// percent (integer math; sums to ~10000).
    pub share_hundredths: [u64; LANES],
    /// Subsystem with the largest share (ties break toward lower lane).
    pub dominant: Subsystem,
}

impl PercentileRow {
    /// Share for `sub` in percent (f64 view of the integer hundredths).
    pub fn share_pct(&self, sub: Subsystem) -> f64 {
        self.share_hundredths[sub.lane() as usize] as f64 / 100.0
    }
}

/// Fold configuration.
#[derive(Debug, Clone)]
pub struct FoldConfig {
    /// Ignore root spans starting before this instant (excludes preload).
    pub min_start: Nanos,
    /// How many tail exemplars to keep.
    pub exemplars: usize,
}

impl Default for FoldConfig {
    fn default() -> Self {
        FoldConfig {
            min_start: 0,
            exemplars: 4,
        }
    }
}

/// The folded decomposition of one run.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// Ops folded.
    pub ops: u64,
    /// Max per-op |latency − Σ segments| — 0 by construction; exported so
    /// the invariant is checkable from the report alone.
    pub conservation_max_err_ns: u64,
    /// Critical-path totals, ordered by (lane, phase).
    pub phases: Vec<PhaseTotal>,
    /// Off-path totals (verifier/repl durable-ization), same order.
    pub offpath: Vec<PhaseTotal>,
    /// p50/p99/p99.9 attribution rows.
    pub percentiles: Vec<PercentileRow>,
    /// K worst ops with full timelines.
    pub exemplars: Vec<Exemplar>,
}

impl Breakdown {
    /// The attribution row for `label` (`"p999"` etc.).
    pub fn percentile(&self, label: &str) -> Option<&PercentileRow> {
        self.percentiles.iter().find(|p| p.label == label)
    }
}

fn arg(r: &TraceRecord, key: &str) -> Option<u64> {
    r.args.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

#[derive(Debug, Clone, Copy)]
struct Interval {
    start: Nanos,
    end: Nanos,
    sub: Subsystem,
    phase: &'static str,
}

/// Fold a record buffer into a [`Breakdown`].
pub fn fold(records: &[TraceRecord], cfg: &FoldConfig) -> Breakdown {
    // ---- index pass -----------------------------------------------------
    let mut roots: Vec<&TraceRecord> = Vec::new();
    let mut children: HashMap<u64, Vec<&TraceRecord>> = HashMap::new();
    let mut alloc_off: HashMap<u64, u64> = HashMap::new();
    let mut server_spans: HashMap<(u64, u64), &TraceRecord> = HashMap::new();
    let mut park_spans: HashMap<(u64, u64), &TraceRecord> = HashMap::new();
    let mut verifier_by_off: HashMap<u64, Vec<&TraceRecord>> = HashMap::new();
    let mut repl_spans: Vec<&TraceRecord> = Vec::new();

    for r in records {
        match (r.kind, r.name) {
            (RecordKind::Span, "op") if r.op != 0 && r.ts >= cfg.min_start => {
                roots.push(r);
            }
            (RecordKind::Span, _) if r.op != 0 => {
                children.entry(r.op).or_default().push(r);
            }
            (RecordKind::Instant, "alloc_off") if r.op != 0 => {
                if let Some(off) = arg(r, "off") {
                    alloc_off.insert(r.op, off);
                }
            }
            (RecordKind::Span, name) if r.sub == Subsystem::Server => {
                if let (Some(qp), Some(req)) = (arg(r, "qp"), arg(r, "req")) {
                    let spans = if name == "park" {
                        &mut park_spans
                    } else {
                        &mut server_spans
                    };
                    spans.insert((qp, req), r);
                }
            }
            (RecordKind::Span, "crc_verify" | "flush") if r.sub == Subsystem::Verifier => {
                if let Some(off) = arg(r, "off") {
                    verifier_by_off.entry(off).or_default().push(r);
                }
            }
            (RecordKind::Span, "repl_mirror") if r.sub == Subsystem::Repl => {
                repl_spans.push(r);
            }
            _ => {}
        }
    }

    // ---- per-op fold ----------------------------------------------------
    let mut summaries: Vec<OpSummary> = Vec::with_capacity(roots.len());
    let mut candidates: Vec<Exemplar> = Vec::new();
    let mut conservation_max_err = 0u64;
    let mut phase_totals: std::collections::BTreeMap<(u32, &'static str), (PhaseKind, u64, u64)> =
        Default::default();
    let mut offpath_totals: std::collections::BTreeMap<(u32, &'static str), (PhaseKind, u64, u64)> =
        Default::default();

    for root in &roots {
        let (w0, w1) = (root.ts, root.ts + root.dur);
        let kids = children.get(&root.op).map(Vec::as_slice).unwrap_or(&[]);

        // Build the interval set: attributed child spans, joined server
        // handling, and synthetic queue/transit slices derived from it.
        let mut ivs: Vec<Interval> = Vec::new();
        for k in kids {
            let (s, e) = (k.ts.max(w0), (k.ts + k.dur).min(w1));
            if s >= e {
                continue;
            }
            ivs.push(Interval {
                start: s,
                end: e,
                sub: k.sub,
                phase: k.name,
            });
        }
        for k in kids.iter().filter(|k| k.name == "rpc") {
            let Some(key) = arg(k, "qp").zip(arg(k, "req")) else {
                continue;
            };
            let (r0, r1) = (k.ts.max(w0), (k.ts + k.dur).min(w1));
            // The handler span and, for a request that waited in the
            // handler's wait list, the park before it. A dedup resend has
            // neither.
            let mut served: Option<(Nanos, Nanos)> = None;
            for sp in [park_spans.get(&key), server_spans.get(&key)]
                .into_iter()
                .flatten()
            {
                let (h0, h1) = (sp.ts.max(r0), (sp.ts + sp.dur).min(r1));
                if h0 >= h1 {
                    continue;
                }
                ivs.push(Interval {
                    start: h0,
                    end: h1,
                    sub: Subsystem::Server,
                    phase: sp.name,
                });
                served = Some(served.map_or((h0, h1), |(s0, s1)| (s0.min(h0), s1.max(h1))));
            }
            let Some((h0, h1)) = served else {
                continue;
            };
            // Server dispatch queue: from the end of the last NIC send that
            // completed before handling started to the handler pickup.
            let send_end = kids
                .iter()
                .filter(|s| s.sub == Subsystem::Nic && s.name == "send")
                .map(|s| s.ts + s.dur)
                .filter(|&e| e >= r0 && e <= h0)
                .max();
            if let Some(e) = send_end {
                if e < h0 {
                    ivs.push(Interval {
                        start: e,
                        end: h0,
                        sub: Subsystem::Server,
                        phase: "req_queue",
                    });
                }
            }
            // Reply transit: handler done → client observes the reply.
            if h1 < r1 {
                ivs.push(Interval {
                    start: h1,
                    end: r1,
                    sub: Subsystem::Nic,
                    phase: "reply_transit",
                });
            }
        }

        // Interval sweep: innermost active interval owns each slice;
        // uncovered time is client-side queueing.
        let mut bounds: Vec<Nanos> = Vec::with_capacity(2 + ivs.len() * 2);
        bounds.push(w0);
        bounds.push(w1);
        for iv in &ivs {
            bounds.push(iv.start);
            bounds.push(iv.end);
        }
        bounds.sort_unstable();
        bounds.dedup();

        let mut segments: Vec<Segment> = Vec::new();
        for pair in bounds.windows(2) {
            let (b0, b1) = (pair[0], pair[1]);
            let mut best: Option<(usize, &Interval)> = None;
            for (idx, iv) in ivs.iter().enumerate() {
                if iv.start > b0 || iv.end < b1 {
                    continue;
                }
                best = match best {
                    None => Some((idx, iv)),
                    Some((bi, b)) => {
                        // Innermost wins: latest start, then earliest end,
                        // then latest-pushed (synthetics refine their span).
                        if (iv.start, std::cmp::Reverse(iv.end), idx)
                            > (b.start, std::cmp::Reverse(b.end), bi)
                        {
                            Some((idx, iv))
                        } else {
                            Some((bi, b))
                        }
                    }
                };
            }
            let (sub, phase) = match best {
                Some((_, iv)) => (iv.sub, iv.phase),
                None => (Subsystem::Client, "client_gap"),
            };
            match segments.last_mut() {
                Some(last)
                    if last.sub == sub && last.phase == phase && last.start + last.dur == b0 =>
                {
                    last.dur += b1 - b0;
                }
                _ => segments.push(Segment {
                    sub,
                    phase,
                    kind: phase_kind(phase),
                    start: b0,
                    dur: b1 - b0,
                }),
            }
        }

        let mut sub_ns = [0u64; LANES];
        let mut covered = 0u64;
        for seg in &segments {
            sub_ns[seg.sub.lane() as usize] += seg.dur;
            covered += seg.dur;
            let slot = phase_totals
                .entry((seg.sub.lane(), seg.phase))
                .or_insert((seg.kind, 0, 0));
            slot.1 += seg.dur;
            slot.2 += 1;
        }
        conservation_max_err = conservation_max_err.max(root.dur.abs_diff(covered));

        // Off-path durable-ization joined by the op's log offset.
        let mut offpath: Vec<Segment> = Vec::new();
        if let Some(&off) = alloc_off.get(&root.op) {
            if let Some(vs) = verifier_by_off.get(&off) {
                for v in vs {
                    offpath.push(Segment {
                        sub: v.sub,
                        phase: v.name,
                        kind: PhaseKind::Service,
                        start: v.ts,
                        dur: v.dur,
                    });
                }
            }
            for r in &repl_spans {
                let (Some(base), Some(bytes)) = (arg(r, "off"), arg(r, "bytes")) else {
                    continue;
                };
                if off >= base && off < base + bytes {
                    let objects = arg(r, "objects").unwrap_or(1).max(1);
                    offpath.push(Segment {
                        sub: Subsystem::Repl,
                        phase: "repl_mirror",
                        kind: PhaseKind::Service,
                        start: r.ts,
                        dur: r.dur / objects,
                    });
                }
            }
        }
        for seg in &offpath {
            let slot = offpath_totals
                .entry((seg.sub.lane(), seg.phase))
                .or_insert((seg.kind, 0, 0));
            slot.1 += seg.dur;
            slot.2 += 1;
        }

        let summary = OpSummary {
            op: root.op,
            kind_code: arg(root, "kind").unwrap_or(0),
            shard: arg(root, "shard").unwrap_or(0),
            key_fp: arg(root, "key_fp").unwrap_or(0),
            retries: arg(root, "retries").unwrap_or(0),
            start: root.ts,
            latency: root.dur,
            sub_ns,
        };

        // Running top-K by (latency desc, op asc): evict the current least
        // extreme candidate when over budget.
        if cfg.exemplars > 0 {
            candidates.push(Exemplar {
                summary: summary.clone(),
                segments,
                offpath,
            });
            if candidates.len() > cfg.exemplars {
                let worst_idx = (0..candidates.len())
                    .min_by_key(|&i| {
                        let s = &candidates[i].summary;
                        (s.latency, std::cmp::Reverse(s.op))
                    })
                    .unwrap();
                candidates.swap_remove(worst_idx);
            }
        }
        summaries.push(summary);
    }

    // ---- aggregates ------------------------------------------------------
    let phases = phase_totals
        .iter()
        .map(|(&(lane, phase), &(kind, total_ns, count))| PhaseTotal {
            sub: Subsystem::ALL[lane as usize],
            phase,
            kind,
            total_ns,
            count,
        })
        .collect();
    let offpath = offpath_totals
        .iter()
        .map(|(&(lane, phase), &(kind, total_ns, count))| PhaseTotal {
            sub: Subsystem::ALL[lane as usize],
            phase,
            kind,
            total_ns,
            count,
        })
        .collect();

    let mut latencies: Vec<Nanos> = summaries.iter().map(|s| s.latency).collect();
    latencies.sort_unstable();
    let mut percentiles = Vec::new();
    for (label, q_num, q_den) in [
        ("p50", 50u64, 100u64),
        ("p99", 99, 100),
        ("p999", 999, 1000),
    ] {
        if latencies.is_empty() {
            break;
        }
        let threshold = nearest_rank(&latencies, q_num, q_den);
        let mut lane_ns = [0u64; LANES];
        let mut total = 0u64;
        let mut cohort = 0u64;
        for s in &summaries {
            if s.latency >= threshold {
                cohort += 1;
                total += s.latency;
                for (lane, ns) in s.sub_ns.iter().enumerate() {
                    lane_ns[lane] += ns;
                }
            }
        }
        let mut share_hundredths = [0u64; LANES];
        for (share, ns) in share_hundredths.iter_mut().zip(lane_ns) {
            *share = (ns * 10_000).checked_div(total).unwrap_or(0);
        }
        let dominant_lane = (0..LANES)
            .max_by_key(|&l| (share_hundredths[l], std::cmp::Reverse(l)))
            .unwrap();
        percentiles.push(PercentileRow {
            label,
            threshold_ns: threshold,
            cohort,
            share_hundredths,
            dominant: Subsystem::ALL[dominant_lane],
        });
    }

    candidates.sort_by_key(|e| (std::cmp::Reverse(e.summary.latency), e.summary.op));
    Breakdown {
        ops: summaries.len() as u64,
        conservation_max_err_ns: conservation_max_err,
        phases,
        offpath,
        percentiles,
        exemplars: candidates,
    }
}

// ---------------------------------------------------------------------------
// exports
// ---------------------------------------------------------------------------

/// Hundredths of a percent rendered as a JSON number (`1234` → `12.34`).
fn pct(hundredths: u64) -> String {
    format!("{}.{:02}", hundredths / 100, hundredths % 100)
}

fn phase_totals_json(totals: &[PhaseTotal]) -> String {
    let mut arr = Arr::new();
    for t in totals {
        arr = arr.raw(
            &Obj::new()
                .str("sub", t.sub.label())
                .str("phase", t.phase)
                .str("kind", t.kind.label())
                .u64("total_ns", t.total_ns)
                .u64("count", t.count)
                .finish(),
        );
    }
    arr.finish()
}

fn segments_json(segs: &[Segment]) -> String {
    let mut arr = Arr::new();
    for s in segs {
        arr = arr.raw(
            &Obj::new()
                .str("sub", s.sub.label())
                .str("phase", s.phase)
                .str("kind", s.kind.label())
                .u64("start_ns", s.start)
                .u64("dur_ns", s.dur)
                .finish(),
        );
    }
    arr.finish()
}

impl Breakdown {
    /// The `breakdown` report section (exemplars are exported separately by
    /// [`Breakdown::exemplars_json`]).
    pub fn to_json(&self) -> String {
        let mut pcts = Arr::new();
        for p in &self.percentiles {
            let mut shares = Obj::new();
            for sub in Subsystem::ALL {
                shares = shares.raw(sub.label(), &pct(p.share_hundredths[sub.lane() as usize]));
            }
            pcts = pcts.raw(
                &Obj::new()
                    .str("label", p.label)
                    .u64("threshold_ns", p.threshold_ns)
                    .u64("cohort", p.cohort)
                    .raw("shares", &shares.finish())
                    .str("dominant", p.dominant.label())
                    .finish(),
            );
        }
        Obj::new()
            .u64("ops", self.ops)
            .u64("conservation_max_err_ns", self.conservation_max_err_ns)
            .raw("phases", &phase_totals_json(&self.phases))
            .raw("offpath", &phase_totals_json(&self.offpath))
            .raw("percentiles", &pcts.finish())
            .finish()
    }

    /// The `tail_exemplars` report section.
    pub fn exemplars_json(&self) -> String {
        let mut arr = Arr::new();
        for e in &self.exemplars {
            let s = &e.summary;
            arr = arr.raw(
                &Obj::new()
                    .u64("op", s.op)
                    .str("kind", s.kind_label())
                    .u64("shard", s.shard)
                    .u64("key_fp", s.key_fp)
                    .u64("retries", s.retries)
                    .u64("start_ns", s.start)
                    .u64("latency_ns", s.latency)
                    .raw("phases", &segments_json(&e.segments))
                    .raw("offpath", &segments_json(&e.offpath))
                    .finish(),
            );
        }
        arr.finish()
    }

    /// Chrome-trace overlay events for the exemplar lane (tid
    /// [`OVERLAY_LANE`]), suitable for
    /// [`crate::Tracer::to_chrome_json_with_overlay`].
    pub fn chrome_overlay_events(&self) -> Vec<String> {
        let mut events = Vec::new();
        for e in &self.exemplars {
            let s = &e.summary;
            events.push(
                Obj::new()
                    .str("name", "tail_op")
                    .str("cat", "exemplar")
                    .str("ph", "X")
                    .raw("ts", &chrome_us(s.start))
                    .raw("dur", &chrome_us(s.latency))
                    .u64("pid", 0)
                    .u64("tid", OVERLAY_LANE as u64)
                    .raw(
                        "args",
                        &Obj::new()
                            .u64("op", s.op)
                            .u64("retries", s.retries)
                            .u64("shard", s.shard)
                            .finish(),
                    )
                    .finish(),
            );
            for seg in &e.segments {
                events.push(
                    Obj::new()
                        .str("name", seg.phase)
                        .str("cat", "exemplar")
                        .str("ph", "X")
                        .raw("ts", &chrome_us(seg.start))
                        .raw("dur", &chrome_us(seg.dur))
                        .u64("pid", 0)
                        .u64("tid", OVERLAY_LANE as u64)
                        .raw(
                            "args",
                            &Obj::new()
                                .u64("op", s.op)
                                .str("sub", seg.sub.label())
                                .finish(),
                        )
                        .finish(),
                );
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        op: u64,
        sub: Subsystem,
        name: &'static str,
        ts: Nanos,
        dur: Nanos,
        args: &[(&'static str, u64)],
    ) -> TraceRecord {
        TraceRecord {
            ts,
            dur,
            kind: RecordKind::Span,
            sub,
            name,
            op,
            args: args.into(),
        }
    }

    fn instant(
        op: u64,
        sub: Subsystem,
        name: &'static str,
        ts: Nanos,
        args: &[(&'static str, u64)],
    ) -> TraceRecord {
        TraceRecord {
            ts,
            dur: 0,
            kind: RecordKind::Instant,
            sub,
            name,
            op,
            args: args.into(),
        }
    }

    /// One RPC PUT: root covers send → server queue → handler → reply
    /// transit, and the sweep's segments conserve the measured latency.
    #[test]
    fn single_rpc_op_decomposes_and_conserves() {
        let recs = vec![
            span(
                1,
                Subsystem::Client,
                "op",
                0,
                100,
                &[("kind", 1), ("shard", 2), ("key_fp", 77), ("retries", 0)],
            ),
            span(
                1,
                Subsystem::Client,
                "rpc",
                10,
                50,
                &[("qp", 4), ("req", 9)],
            ),
            span(1, Subsystem::Nic, "send", 10, 10, &[("bytes", 64)]),
            span(
                0,
                Subsystem::Server,
                "rpc_alloc",
                25,
                15,
                &[("qp", 4), ("req", 9)],
            ),
        ];
        let b = fold(&recs, &FoldConfig::default());
        assert_eq!(b.ops, 1);
        assert_eq!(b.conservation_max_err_ns, 0);
        let e = &b.exemplars[0];
        let timeline: Vec<(&str, Nanos, Nanos)> = e
            .segments
            .iter()
            .map(|s| (s.phase, s.start, s.dur))
            .collect();
        assert_eq!(
            timeline,
            vec![
                ("client_gap", 0, 10),
                ("send", 10, 10),
                ("req_queue", 20, 5),
                ("rpc_alloc", 25, 15),
                ("reply_transit", 40, 20),
                ("client_gap", 60, 40),
            ]
        );
        assert_eq!(e.segments.iter().map(|s| s.dur).sum::<Nanos>(), 100);
        assert_eq!(e.summary.sub_ns[Subsystem::Server.lane() as usize], 20);
        assert_eq!((e.summary.kind_code, e.summary.shard), (1, 2));
        // req_queue and client_gap classify as queueing, send as service.
        assert!(e
            .segments
            .iter()
            .any(|s| s.phase == "req_queue" && s.kind == PhaseKind::Queue));
        assert!(e
            .segments
            .iter()
            .any(|s| s.phase == "send" && s.kind == PhaseKind::Service));
    }

    #[test]
    fn a_parked_request_folds_its_wait_as_a_server_queue_phase() {
        let rpc = [("qp", 4), ("req", 9)];
        let recs = vec![
            span(1, Subsystem::Client, "op", 0, 100, &[("kind", 0)]),
            span(1, Subsystem::Client, "rpc", 10, 80, &rpc),
            span(1, Subsystem::Nic, "send", 10, 10, &[("bytes", 64)]),
            span(0, Subsystem::Server, "park", 25, 30, &rpc),
            span(0, Subsystem::Server, "rpc_get", 55, 15, &rpc),
        ];
        let b = fold(&recs, &FoldConfig::default());
        assert_eq!(b.conservation_max_err_ns, 0);
        let timeline: Vec<(&str, PhaseKind, Nanos, Nanos)> = b.exemplars[0]
            .segments
            .iter()
            .map(|s| (s.phase, s.kind, s.start, s.dur))
            .collect();
        use PhaseKind::{Queue, Service};
        assert_eq!(
            timeline,
            vec![
                ("client_gap", Queue, 0, 10),
                ("send", Service, 10, 10),
                ("req_queue", Queue, 20, 5),
                ("park", Queue, 25, 30),
                ("rpc_get", Service, 55, 15),
                ("reply_transit", Service, 70, 20),
                ("client_gap", Queue, 90, 10),
            ]
        );
    }

    #[test]
    fn backoff_counts_as_retry_and_min_start_filters_preload() {
        let recs = vec![
            // Preload op before min_start: excluded entirely.
            span(7, Subsystem::Client, "op", 0, 50, &[("kind", 1)]),
            span(
                9,
                Subsystem::Client,
                "op",
                1_000,
                100,
                &[("kind", 0), ("retries", 1)],
            ),
            span(9, Subsystem::Client, "backoff", 1_010, 30, &[]),
        ];
        let b = fold(
            &recs,
            &FoldConfig {
                min_start: 500,
                exemplars: 4,
            },
        );
        assert_eq!(b.ops, 1);
        let retry: Vec<&PhaseTotal> = b
            .phases
            .iter()
            .filter(|t| t.kind == PhaseKind::Retry)
            .collect();
        assert_eq!(retry.len(), 1);
        assert_eq!((retry[0].phase, retry[0].total_ns), ("backoff", 30));
        assert_eq!(b.conservation_max_err_ns, 0);
    }

    #[test]
    fn offpath_joins_verifier_and_repl_by_offset() {
        let recs = vec![
            span(3, Subsystem::Client, "op", 0, 40, &[("kind", 1)]),
            instant(3, Subsystem::Client, "alloc_off", 20, &[("off", 4096)]),
            span(
                0,
                Subsystem::Verifier,
                "crc_verify",
                500,
                90,
                &[("off", 4096)],
            ),
            span(0, Subsystem::Verifier, "flush", 590, 60, &[("off", 4096)]),
            // Mirror run covering [4096, 4096+512) with 2 objects.
            span(
                0,
                Subsystem::Repl,
                "repl_mirror",
                700,
                200,
                &[("off", 4096), ("bytes", 512), ("objects", 2)],
            ),
            // A run elsewhere in the log: not joined.
            span(
                0,
                Subsystem::Repl,
                "repl_mirror",
                900,
                100,
                &[("off", 65_536), ("bytes", 512), ("objects", 1)],
            ),
        ];
        let b = fold(&recs, &FoldConfig::default());
        let e = &b.exemplars[0];
        let off: Vec<(&str, Nanos)> = e.offpath.iter().map(|s| (s.phase, s.dur)).collect();
        assert_eq!(
            off,
            vec![("crc_verify", 90), ("flush", 60), ("repl_mirror", 100)]
        );
        // Off-path never leaks into the critical-path conservation sum.
        assert_eq!(e.segments.iter().map(|s| s.dur).sum::<Nanos>(), 40);
        assert!(b.offpath.iter().any(|t| t.phase == "crc_verify"));
    }

    #[test]
    fn percentile_attribution_finds_tail_owner_and_exemplars_rank() {
        // 99 fast client-bound ops and one slow op dominated by a joined
        // server handler: the tail rows must attribute to the server.
        let mut recs = Vec::new();
        for i in 0..99u64 {
            recs.push(span(
                i + 1,
                Subsystem::Client,
                "op",
                i * 10,
                5,
                &[("kind", 0)],
            ));
        }
        recs.push(span(
            100,
            Subsystem::Client,
            "op",
            5_000,
            1_000,
            &[("kind", 1)],
        ));
        recs.push(span(
            100,
            Subsystem::Client,
            "rpc",
            5_000,
            1_000,
            &[("qp", 1), ("req", 1)],
        ));
        recs.push(span(
            0,
            Subsystem::Server,
            "rpc_alloc",
            5_050,
            900,
            &[("qp", 1), ("req", 1)],
        ));
        let b = fold(&recs, &FoldConfig::default());
        assert_eq!(b.ops, 100);
        let p999 = b.percentile("p999").unwrap();
        assert_eq!(p999.cohort, 1);
        assert_eq!(p999.dominant, Subsystem::Server);
        assert!(p999.share_pct(Subsystem::Server) > 80.0);
        let p50 = b.percentile("p50").unwrap();
        assert!(p50.cohort >= 50);
        // Exemplars: worst op first, K bounded.
        assert_eq!(b.exemplars.len(), 4);
        assert_eq!(b.exemplars[0].summary.op, 100);
        assert_eq!(b.exemplars[0].summary.latency, 1_000);
        // Exports are well-formed and carry the sections the report embeds.
        let json = b.to_json();
        assert!(json.contains("\"percentiles\":["));
        assert!(json.contains("\"dominant\":\"server\""));
        let ex = b.exemplars_json();
        assert!(ex.contains("\"latency_ns\":1000"));
        let overlay = b.chrome_overlay_events();
        assert!(overlay[0].contains("\"tid\":8"));
    }

    #[test]
    fn cluster_lane_can_own_the_tail_and_overlay_has_its_own_lane() {
        // 99 fast client-bound ops and one slow op partly spent in a
        // Cluster span (a placement refresh): p99.9 is that op alone.
        let fold_with = |refresh: Nanos| {
            let mut recs: Vec<TraceRecord> = (0..99u64)
                .map(|i| span(i + 1, Subsystem::Client, "op", i * 10, 5, &[]))
                .collect();
            recs.push(span(100, Subsystem::Client, "op", 5_000, 1_000, &[]));
            recs.push(span(
                100,
                Subsystem::Cluster,
                "refresh",
                5_050,
                refresh,
                &[],
            ));
            fold(&recs, &FoldConfig::default())
        };
        let b = fold_with(900);
        let p999 = b.percentile("p999").unwrap();
        assert_eq!((p999.threshold_ns, p999.cohort), (1_000, 1));
        assert_eq!(p999.dominant, Subsystem::Cluster);
        assert_eq!(p999.share_pct(Subsystem::Cluster), 90.0);
        // A 50/50 split between the client and cluster lanes goes to the
        // lower lane.
        let tie = fold_with(500);
        assert_eq!(tie.percentile("p999").unwrap().dominant, Subsystem::Client);
        assert!(Subsystem::ALL.iter().all(|s| s.lane() != OVERLAY_LANE));
    }

    #[test]
    fn empty_fold_is_empty() {
        let b = fold(&[], &FoldConfig::default());
        assert_eq!(b.ops, 0);
        assert!(b.percentiles.is_empty());
        assert!(b.exemplars.is_empty());
        assert!(b.to_json().starts_with("{\"ops\":0,"));
        assert_eq!(b.exemplars_json(), "[]");
    }
}
