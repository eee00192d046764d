//! Backup-side apply loop.
//!
//! The backup is a passive replica: a single process drains `WriteImm`
//! completions from the primary's mirror, and for each mirrored run walks
//! the objects, **re-verifies the CRC**, flushes the bytes to its own
//! media, and links its own hash entry — so an object is visible on the
//! backup only after remote persistence, matching the primary's
//! durability-flag discipline.
//!
//! Once the backup is claimed for a promotion (see [`super::Backup`]),
//! the loop drains the in-flight mirror tail and exits; the promotion
//! itself runs in the data node's agent.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use efactory_pmem::{PmemPool, LINE};
use efactory_rnic::{CostModel, Incoming, Listener, Node, QpError};
use efactory_sim as sim;

use super::ReplStats;
use crate::hashtable::{fingerprint, HashTable};
use crate::layout::{self, flags, ObjHeader, HDR_LEN};
use crate::log::{LogRegion, StoreLayout};
use crate::server::VERIFY_STEP_COST;

/// Everything the backup's apply process needs.
pub(crate) struct BackupCtx {
    /// The backup's own node.
    pub node: Node,
    /// The backup's own NVM pool (same layout as the primary's).
    pub pool: Arc<PmemPool>,
    pub layout: StoreLayout,
    pub cost: CostModel,
    pub stats: Arc<ReplStats>,
    /// Set once the backup is claimed: drain, then exit.
    pub claimed: Arc<AtomicBool>,
    pub stop: Arc<AtomicBool>,
}

/// The backup apply loop. Runs until shutdown, a crash of the backup's
/// node, or a claim — after which it drains the in-flight mirror batches
/// (they land at their wire-arrival instants, which may still be in the
/// future) and exits.
pub(crate) fn run(ctx: BackupCtx, listener: Listener) {
    let ht = ctx.layout.hashtable();
    let regions = ctx.layout.regions();
    let born = ctx.node.epoch();
    loop {
        // A crash of the backup's node bumps its epoch.
        if ctx.stop.load(Ordering::Relaxed) || ctx.node.epoch() != born {
            return;
        }
        let draining = ctx.claimed.load(Ordering::Relaxed);
        let wait = if draining { 20 } else { 100 };
        match listener.recv_deadline(sim::now() + sim::micros(wait)) {
            Ok(Incoming::WriteImm { imm, len, .. }) => {
                apply_range(&ctx, &ht, &regions, imm as usize, len);
            }
            Ok(Incoming::Send { .. }) => {
                // The mirror never uses two-sided sends; ignore strays.
            }
            Err(QpError::Timeout) if draining => return,
            Err(QpError::Timeout) => {}
            // Listener torn down (backup crash/restart): exit.
            Err(_) => return,
        }
    }
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
