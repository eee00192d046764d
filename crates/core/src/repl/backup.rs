//! Backup-side apply loop and promotion.
//!
//! The backup is a passive replica: a single process drains `WriteImm`
//! completions from the primary's mirror, and for each mirrored run walks
//! the objects, **re-verifies the CRC**, flushes the bytes to its own
//! media, and links its own hash entry — so an object is visible on the
//! backup only after remote persistence, matching the primary's
//! durability-flag discipline.
//!
//! When the primary dies (detected as a receive deadline firing with the
//! primary's node marked crashed), the backup drains the in-flight mirror
//! tail and *promotes*: it runs the ordinary [`crate::recovery`] replay
//! over the mirrored log — the exact code path a rebooted primary runs —
//! starts serving, and takes its shard's seat for clients to re-resolve
//! to.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use efactory_obs::Subsystem;
use efactory_pmem::{PmemPool, LINE};
use efactory_rnic::{CostModel, Fabric, Incoming, Listener, Node, QpError};
use efactory_sim as sim;

use super::{ReplStats, PROMOTED};
use crate::hashtable::{fingerprint, HashTable};
use crate::layout::{self, flags, ObjHeader, HDR_LEN};
use crate::log::{LogRegion, StoreLayout};
use crate::server::{ServerConfig, VERIFY_STEP_COST};
use crate::store::{Seat, Seats};

/// Everything the backup's apply process needs.
pub(crate) struct BackupCtx {
    pub fabric: Arc<Fabric>,
    /// The primary being mirrored (watched for crash detection).
    pub primary: Node,
    /// The backup's own node.
    pub node: Node,
    /// The backup's own NVM pool (same layout as the primary's).
    pub pool: Arc<PmemPool>,
    pub layout: StoreLayout,
    /// The primary's config — promotion reuses it (with a `promoted.`
    /// counter prefix so both servers' counters coexist in one registry).
    pub cfg: ServerConfig,
    pub cost: CostModel,
    pub stats: Arc<ReplStats>,
    pub seats: Arc<Seats>,
    /// This backup's shard in `seats`.
    pub shard: usize,
    pub stop: Arc<std::sync::atomic::AtomicBool>,
}

/// The backup apply loop. Runs until shutdown, or until the primary dies —
/// in which case it promotes and exits (the promoted server's own
/// processes take over).
pub(crate) fn run(ctx: BackupCtx, listener: Listener) {
    let ht = ctx.layout.hashtable();
    let regions = ctx.layout.regions();
    let born = ctx.node.epoch();
    loop {
        if ctx.stop.load(Ordering::Relaxed) || ctx.node.is_crashed() || ctx.node.epoch() != born {
            return;
        }
        match listener.recv_deadline(sim::now() + sim::micros(100)) {
            Ok(Incoming::WriteImm { imm, len, .. }) => {
                apply_range(&ctx, &ht, &regions, imm as usize, len);
            }
            Ok(Incoming::Send { .. }) => {
                // The mirror never uses two-sided sends; ignore strays.
            }
            Err(QpError::Timeout) => {
                if ctx.primary.is_crashed() && !ctx.stop.load(Ordering::Relaxed) {
                    drain_and_promote(ctx, listener, &ht, &regions);
                    return;
                }
            }
            Err(_) => {
                // Listener torn down (backup crash/restart): exit; a
                // restarted backup is recovered explicitly by the operator
                // (see the double-fault test).
                return;
            }
        }
    }
}

/// The primary is dead: drain in-flight mirror batches (they land at their
/// wire-arrival instants, which may still be in the future), then promote.
fn drain_and_promote(ctx: BackupCtx, listener: Listener, ht: &HashTable, regions: &[LogRegion; 2]) {
    loop {
        match listener.recv_deadline(sim::now() + sim::micros(20)) {
            Ok(Incoming::WriteImm { imm, len, .. }) => {
                apply_range(&ctx, ht, regions, imm as usize, len);
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }
    promote(ctx);
}

/// Replay the mirrored log through the standard recovery path and start
/// serving. The recovered server gets a `promoted.`-prefixed counter
/// namespace.
///
/// Cleaning-progress records are erased first: the mirror re-sends a
/// swapped pool lowest-offset-first, so the backup image can hold a
/// `Done` record whose relocated data never arrived — recovery's record
/// rules assume a crash-consistent primary image and would zero the
/// fully-mirrored old region. With the records gone, recovery falls back
/// to the fill heuristic + dual-slot candidate walks, which handle the
/// mixed image correctly.
fn promote(ctx: BackupCtx) {
    let tracer = ctx.cfg.obs.tracer.clone();
    let mut sp = tracer.span(Subsystem::Repl, "promote");
    let mut cfg = ctx.cfg.clone();
    cfg.counter_prefix = format!("{}promoted.", ctx.cfg.counter_prefix);
    let erased = crate::recovery::neutralize_clean_records(&ctx.pool, &ctx.layout);
    sp.arg("clean_records_erased", erased as u64);
    let (srv, report) = crate::recovery::recover(
        &ctx.fabric,
        &ctx.node,
        Arc::clone(&ctx.pool),
        ctx.layout,
        cfg,
    );
    sp.arg("keys_intact", report.keys_intact as u64);
    sp.arg("keys_rolled_back", report.keys_rolled_back as u64);
    sp.arg("keys_lost", report.keys_lost as u64);
    srv.start(&ctx.fabric);
    ctx.stats.promotions.inc();
    ctx.seats.install(
        ctx.shard,
        Seat {
            owner: PROMOTED,
            server: srv,
        },
    );
}

/// Apply one mirrored run: walk the objects in `[start, start+len)` and
/// apply each. The run is a contiguous slice of the primary's log, so the
/// walk uses the same header-chasing as recovery scans.
fn apply_range(
    ctx: &BackupCtx,
    ht: &HashTable,
    regions: &[LogRegion; 2],
    start: usize,
    len: usize,
) {
    let end = start + len;
    let mut off = start;
    let mut objs = 0u64;
    while off + HDR_LEN <= end {
        let hdr = ObjHeader::read_from(&ctx.pool, off);
        let size = hdr.object_size();
        if size <= HDR_LEN || off + size > end {
            // Truncated tail or garbage header: a torn mirror write. Stop;
            // promotion's recovery scan will also stop here.
            break;
        }
        if !hdr.plausible() {
            ctx.stats.apply_failures.inc();
            break;
        }
        apply_object(ctx, ht, regions, off, &hdr);
        off += size;
        objs += 1;
    }
    ctx.stats.applied_objects.add(objs);
    ctx.stats.applied_bytes.add((off - start) as u64);
}

/// Apply one mirrored object: charge the CRC re-verify the primary's
/// verifier paid (the backup re-verifies before persisting, which is what
/// makes its durability promise *remote*), run the apply step, and charge
/// its flushes.
fn apply_object(
    ctx: &BackupCtx,
    ht: &HashTable,
    regions: &[LogRegion; 2],
    off: usize,
    hdr: &ObjHeader,
) {
    sim::work(VERIFY_STEP_COST + ctx.cost.crc_hw(hdr.vlen as usize));
    let lines = apply_step(&ctx.pool, ht, regions, &ctx.stats, off, hdr);
    sim::work(ctx.cost.flush(lines * LINE));
}

/// The apply step, which charges no virtual time: persist the object's
/// bytes and — only if intact — link the backup's own hash entry.
/// Invalidated or torn objects keep their bytes (the log prefix must stay
/// hole-free for promotion's replay) but are never indexed. Returns the
/// lines flushed. The apply loop and `Backup::load_object` both run it,
/// so a loaded backup is indexed exactly as a mirrored one.
pub(super) fn apply_step(
    pool: &PmemPool,
    ht: &HashTable,
    regions: &[LogRegion; 2],
    stats: &ReplStats,
    off: usize,
    hdr: &ObjHeader,
) -> usize {
    let intact = hdr.has(flags::VALID) && layout::value_intact(pool, off, hdr);
    let mut lines = pool.flush(off, hdr.object_size());
    pool.drain();
    if !intact {
        return lines;
    }
    let key = layout::read_key(pool, off, hdr);
    let fp = fingerprint(&key);
    match ht.lookup_or_claim(pool, fp) {
        Ok((idx, entry)) => {
            // Mutation block (no yields): mirror the primary's index state
            // for this key — newest version wins, single live slot.
            let slot = if regions[1].contains(off) { 1 } else { 0 };
            ht.set_slot(pool, idx, slot, off as u64);
            ht.set_slot(pool, idx, 1 - slot, 0);
            ht.set_sizes(pool, idx, hdr.klen, hdr.vlen);
            ht.set_ctl(
                pool,
                idx,
                entry.ctl.with_mark(slot).with_new_valid(false).bumped(),
            );
            lines += ht.persist_entry(pool, idx);
        }
        Err(_) => {
            stats.apply_failures.inc();
        }
    }
    lines
}
