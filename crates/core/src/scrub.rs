//! Background CRC scrubber: detect and handle silent media corruption.
//!
//! NVM cells decay ("bit-rot"): a range that was durably persisted can
//! later read back wrong, with no signal from the device — the failure
//! class [`efactory_pmem::PmemPool::corrupt_range`] injects. The verifier
//! never revisits an object once its durability flag is set, so rot on a
//! durable object would otherwise go unnoticed until a client's end-to-end
//! CRC check trips on it.
//!
//! The scrubber is a third background sibling of the verifier and cleaner:
//! it repeatedly walks the active log, re-verifying every *durable* object
//! against its recorded value CRC.
//!
//! * **Match** — the object is clean; move on.
//! * **Mismatch, running replicated** — read the same offsets back from
//!   the backup (the mirror keeps the two logs byte-identical at 1:1
//!   offsets), validate the backup copy independently, and rewrite +
//!   re-persist the local object: the rot is *repaired* in place.
//! * **Mismatch, standalone (or backup copy also bad)** — the version is
//!   *quarantined*: `VALID` is cleared and `QUARANTINED` is set in one
//!   atomic flag update, so reads fall through to the previous intact
//!   version (or report not-found) instead of ever returning rotted bytes.
//!
//! Non-durable objects are the verifier's domain and are skipped; so are
//! already-quarantined ones. The walk only runs while no log cleaning is
//! in progress and restarts if the clean epoch changes mid-pass — the
//! cleaner rewrites the log under the scrubber's feet otherwise. Because
//! the scrubber yields between examining an object and acting on it, every
//! *mutation* (quarantine, backup rewrite) independently re-checks the
//! phase and epoch after its last yield: a pool swapped mid-yield must be
//! left exactly as the cleaner published it.
//!
//! A header so damaged the walk cannot even size the object is the worst
//! case: with replication, the backup's intact copy repairs it in place
//! and the walk continues. Standalone, the corpse is quarantined where it
//! lies (its word-0 flag flip needs no sizing) and the walk *resumes* at
//! the next object boundary still reachable through the hash index —
//! every hash entry's version chain is followed to collect candidate
//! offsets, and the smallest one past the corpse is the resume point.
//! Whatever the jump skips is unreachable to readers (no index path leads
//! into it), so no observable object ever escapes scrubbing; the skipped
//! span is surfaced as `scrub.skipped_bytes` so experiments can see the
//! coverage gap. If nothing reachable remains, the pass jumps to the log
//! head and later passes retry the region (new allocations land past the
//! head and are walked normally).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use efactory_obs::{Counter, Registry, Subsystem};
use efactory_rnic::{ClientQp, Fabric, RemoteMr};
use efactory_sim as sim;

use crate::layout::{self, flags, ObjHeader, NIL};
use crate::log::LogRegion;
use crate::repl::ReplTarget;
use crate::server::{CleanPhase, ServerShared, SCRUB_STEP_COST};

/// Scrubber counters (monotonic), registered under `{prefix}scrub.*`.
#[derive(Debug, Default)]
pub struct ScrubStats {
    /// Objects the walk looked at (any flag state).
    pub scanned: Counter,
    /// Durable objects whose CRC matched.
    pub clean: Counter,
    /// Rotted objects rewritten from the backup replica.
    pub repaired: Counter,
    /// Rotted objects invalidated in place (no usable backup copy).
    pub quarantined: Counter,
    /// Repair attempts that failed (backup unreachable or its copy bad);
    /// each such object was quarantined instead.
    pub repair_failures: Counter,
    /// Passes abandoned mid-walk (cleaning started under the scrubber).
    pub halted: Counter,
    /// Bytes jumped over because an unsizable (header-rotted, unrepaired)
    /// object forced the walk to resume at the next index-reachable
    /// boundary. Non-zero means part of the log went unscrubbed — by
    /// construction a span no reader can reach.
    pub skipped_bytes: Counter,
    /// Complete passes over the active log.
    pub passes: Counter,
}

impl ScrubStats {
    /// Attach every counter to `reg` under `{prefix}scrub.*` names.
    pub fn register_prefixed(&self, reg: &Registry, prefix: &str) {
        let pairs: [(&str, &Counter); 8] = [
            ("scrub.scanned", &self.scanned),
            ("scrub.clean", &self.clean),
            ("scrub.repaired", &self.repaired),
            ("scrub.quarantined", &self.quarantined),
            ("scrub.repair_failures", &self.repair_failures),
            ("scrub.halted", &self.halted),
            ("scrub.skipped_bytes", &self.skipped_bytes),
            ("scrub.passes", &self.passes),
        ];
        for (name, c) in pairs {
            reg.attach_counter(&format!("{prefix}{name}"), c);
        }
    }
}

/// The repair source: a QP to the backup plus its memory registration.
struct RepairSource {
    qp: ClientQp,
    mr: RemoteMr,
}

/// Safety cap on version-chain walks in [`next_reachable`] — corruption
/// could splice a chain into a cycle.
const MAX_CHAIN_HOPS: usize = 256;

/// Run the scrubber until the server stops. Must be spawned as its own
/// simulated process (it sleeps and charges CPU). With `repl`, corrupted
/// objects are repaired from the backup; standalone they are quarantined.
pub fn run(shared: &Arc<ServerShared>, fabric: &Arc<Fabric>, repl: Option<&ReplTarget>) {
    let repair = repl.and_then(|t| match fabric.connect(&shared.node, &t.backup) {
        Ok(qp) => Some(RepairSource { qp, mr: t.mr }),
        Err(_) => None,
    });
    while !shared.stopping() {
        if shared.phase() != CleanPhase::Normal {
            sim::sleep(shared.cfg.scrub_interval);
            continue;
        }
        let epoch0 = shared.clean_epoch.load(Ordering::Relaxed);
        let pool_idx = shared.active.load(Ordering::Relaxed);
        let region = &shared.logs[pool_idx];
        let mut off = region.base();
        let mut halted = false;
        while off < region.head() {
            if shared.stopping() {
                return;
            }
            if shared.phase() != CleanPhase::Normal
                || shared.clean_epoch.load(Ordering::Relaxed) != epoch0
            {
                // The cleaner is rewriting the log; abandon this pass.
                shared.scrub.halted.inc();
                halted = true;
                break;
            }
            off += scrub_object(shared, repair.as_ref(), off, region, epoch0);
            sim::work(SCRUB_STEP_COST);
        }
        if !halted {
            shared.scrub.passes.inc();
        }
        sim::sleep(shared.cfg.scrub_interval);
    }
}

/// Whether the cleaner moved under the scrubber since a pass began: any
/// phase or epoch change means offsets examined before the last yield may
/// now sit in a pool mid-relocation (or already re-zeroed). Mutations —
/// quarantine flag flips, backup rewrites — must re-check this *after*
/// their last yield, not just at the walk loop's top, or a half-copied
/// object gets quarantined and a freed region gets resurrected.
fn clean_moved(shared: &ServerShared, epoch0: u64) -> bool {
    shared.phase() != CleanPhase::Normal || shared.clean_epoch.load(Ordering::Relaxed) != epoch0
}

/// Whether a header can be trusted to size the object it heads.
fn header_sane(hdr: &ObjHeader, off: usize, head: usize) -> bool {
    hdr.plausible() && off + hdr.object_size() <= head
}

/// Examine one object. Returns how far to advance the walk (always > 0:
/// even an unsizable header yields a jump to the next reachable boundary
/// or the log head).
fn scrub_object(
    shared: &ServerShared,
    repair: Option<&RepairSource>,
    off: usize,
    region: &LogRegion,
    epoch0: u64,
) -> usize {
    let head = region.head();
    let hdr = ObjHeader::read_from(&shared.pool, off);
    if !header_sane(&hdr, off, head) {
        if clean_moved(shared, epoch0) {
            // The cleaner owns this pool now; the walk loop will halt the
            // pass. Don't quarantine what may be a half-relocated object
            // or a re-zeroed region.
            return head - off;
        }
        // The header itself is rotted: the object cannot even be sized.
        // A backup copy rescues it in place; otherwise quarantine the
        // corpse (the word-0 flag flip needs no sizing — any reader
        // reaching it through a version chain must not trust it) and
        // resume at the next index-reachable boundary. The skipped span
        // is unreachable to readers, so nothing observable goes
        // unscrubbed; it is still accounted under `scrub.skipped_bytes`.
        if let Some(src) = repair {
            if let Some(size) = try_repair(shared, src, off, head, epoch0) {
                shared.scrub.repaired.inc();
                return size;
            }
            shared.scrub.repair_failures.inc();
        }
        if clean_moved(shared, epoch0) {
            return head - off; // repair attempt yielded; re-check
        }
        // Idempotent across passes: the flag word is ours once written, so
        // a corpse met again is only jumped over, not re-counted.
        let resume = next_reachable(shared, region, off).unwrap_or(head);
        if !hdr.has(flags::QUARANTINED) || hdr.has(flags::VALID) {
            quarantine(shared, off);
            shared.scrub.quarantined.inc();
            shared.scrub.skipped_bytes.add((resume - off) as u64);
        }
        return resume - off;
    }
    let size = hdr.object_size();
    shared.scrub.scanned.inc();
    if !hdr.has(flags::VALID) || hdr.has(flags::QUARANTINED) || !hdr.has(flags::DURABLE) {
        // Dead, already quarantined, or still the verifier's business.
        return size;
    }
    sim::work(shared.cost.crc_hw(hdr.vlen as usize));
    if clean_moved(shared, epoch0) {
        // The CRC charge yielded; the object may since have been
        // relocated (its source invalidated) or its pool re-zeroed. The
        // walk loop halts the pass next iteration; mutate nothing.
        return size;
    }
    if layout::value_intact(&shared.pool, off, &hdr) {
        shared.scrub.clean.inc();
        return size;
    }
    // Silent bit-rot on a durable object — the exact hazard this process
    // exists for.
    let mut sp = shared.cfg.obs.tracer.span(Subsystem::Server, "scrub_rot");
    sp.arg("off", off as u64);
    if let Some(src) = repair {
        if try_repair(shared, src, off, head, epoch0).is_some() {
            shared.scrub.repaired.inc();
            return size;
        }
        shared.scrub.repair_failures.inc();
    }
    if clean_moved(shared, epoch0) {
        return size; // repair attempt yielded; re-check before quarantine
    }
    quarantine(shared, off);
    shared.scrub.quarantined.inc();
    size
}

/// Smallest object offset strictly past `after` (and below the head) that
/// a reader could still reach: every occupied hash entry's slots, plus
/// the version chains hanging off them, guarded hop by hop (a rotted
/// `pre_ptr` must not lead the scan astray — chains stop at the first
/// out-of-region or insane header, and at [`MAX_CHAIN_HOPS`]).
fn next_reachable(shared: &ServerShared, region: &LogRegion, after: usize) -> Option<usize> {
    let head = region.head();
    let mut best: Option<usize> = None;
    shared.ht.for_each_occupied(&shared.pool, |_, entry| {
        for slot in entry.slot {
            let mut cur = slot;
            let mut hops = 0;
            while cur != 0 && cur != NIL && hops < MAX_CHAIN_HOPS {
                let off = cur as usize;
                if !region.contains(off) || off >= head {
                    break;
                }
                let hdr = ObjHeader::read_from(&shared.pool, off);
                if !header_sane(&hdr, off, head) {
                    break;
                }
                if off > after && best.is_none_or(|b| off < b) {
                    best = Some(off);
                }
                cur = hdr.pre_ptr;
                hops += 1;
            }
        }
    });
    best
}

/// Fetch the object at `off` from the backup, validate the copy
/// independently (sane header + matching value CRC), and rewrite +
/// re-persist it locally. Returns the repaired object's size, or `None`
/// when no trustworthy copy could be obtained.
fn try_repair(
    shared: &ServerShared,
    src: &RepairSource,
    off: usize,
    head: usize,
    epoch0: u64,
) -> Option<usize> {
    // The local header may be rotted too, so size the object from the
    // *backup's* header (offsets are 1:1 by construction).
    let hdr_bytes = src.qp.rdma_read(&src.mr, off, layout::HDR_LEN).ok()?;
    let bhdr = ObjHeader::decode(&hdr_bytes)?;
    if !header_sane(&bhdr, off, head) || !bhdr.has(flags::VALID) {
        return None;
    }
    let size = bhdr.object_size();
    let obj = src.qp.rdma_read(&src.mr, off, size).ok()?;
    if !bhdr.intact_in(&obj) {
        // The backup's copy is rotted as well; don't spread it.
        return None;
    }
    if clean_moved(shared, epoch0) {
        // The RDMA reads yielded; a clean may have swapped pools under us.
        // Rewriting now could resurrect an object into a re-zeroed region
        // (recovery would then find it and misplace the log head).
        return None;
    }
    let mut sp = shared
        .cfg
        .obs
        .tracer
        .span(Subsystem::Server, "scrub_repair");
    sp.arg("off", off as u64);
    sp.arg("bytes", size as u64);
    // ---- mutation block: rewrite + persist, no yields inside ----
    shared.pool.write(off, &obj);
    let lines = shared.pool.flush(off, size);
    shared.pool.drain();
    // ---- end mutation block ----
    sim::work(shared.cost.flush(lines * efactory_pmem::LINE));
    Some(size)
}

/// Kill the rotted version in place: clear `VALID`, set `QUARANTINED`
/// (one atomic word-0 update), and persist the flag word. Readers fall
/// through to the previous version via the `pre_ptr` chain.
fn quarantine(shared: &ServerShared, off: usize) {
    let mut sp = shared
        .cfg
        .obs
        .tracer
        .span(Subsystem::Server, "scrub_quarantine");
    sp.arg("off", off as u64);
    // ---- mutation block: flag flip + persist, no yields inside ----
    layout::update_flags(&shared.pool, off, flags::QUARANTINED, flags::VALID);
    let lines = shared.pool.flush(off, 8);
    shared.pool.drain();
    // ---- end mutation block ----
    sim::work(shared.cost.flush(lines * efactory_pmem::LINE));
}
