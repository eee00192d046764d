//! Two-stage log cleaning (paper §4.4, Figure 7), crash-consistent.
//!
//! Triggered when the active pool passes the fill threshold:
//!
//! * **Stage 1 — log compressing.** Clients are notified to switch to the
//!   RPC+RDMA read scheme. The cleaner reverse-scans the old pool
//!   (newest → oldest), relocates the latest version of each key into the
//!   new pool, and skips stale versions. New writes keep flowing into the
//!   old pool.
//! * **Stage 2 — log merging.** New writes switch to the new pool. The
//!   cleaner reverse-scans the objects written *during* compression and
//!   merges them, skipping any key whose newest version already lives in
//!   the new pool (the paper's D1/D2 rule).
//! * **Finish.** For every surviving key the mark bit flips to the new
//!   pool's slot and the old offset clears; keys with no intact version
//!   left are dropped. The old pool is zeroed (freed) and clients are told
//!   to resume hybrid reads.
//!
//! Relocated objects are always made durable first (CRC verify + flush if
//! needed), mirroring the GET handler's durability guarantee; an in-flight
//! latest version is waited on up to the verifier timeout, exactly like the
//! background verifier would. Durable sources are CRC-checked too — a
//! bit-rotted object must not be propagated into the new pool as the key's
//! only surviving copy.
//!
//! Chain maintenance: when a relocated object has a newer successor in the
//! old pool, the successor's `PrePTR` is repointed at the relocated copy
//! and its `Trans` flag set (paper §4.2.2) so version-list traversal keeps
//! working while both pools are live.
//!
//! # Crash consistency
//!
//! Every phase transition is preceded by a durable **cleaning-progress
//! record** in the destination pool: a normal log allocation (never linked
//! into the hash table, like a commit record) whose key is
//! [`CLEAN_MAGIC`] + epoch and whose CRC-protected value is
//! `(stage, old_pool)`. Recovery reads the highest `(epoch, stage)` record
//! and knows, instead of guessing from slot states, whether the crash hit
//! compress (old pool still active), merge/finish (new pool active, the
//! `new_valid` slot is the newer candidate), or the post-finish window
//! (new pool active, the old region is dead and is re-zeroed). See
//! [`crate::recovery`] for the decision table.
//!
//! # Backpressure, not panic
//!
//! When the destination pool runs out of space mid-clean the cleaner
//! *parks*: it raises [`ServerShared::clean_stalled`] (the handler answers
//! PUT/DEL with retryable `Busy`), reclaims tombstoned buckets in place,
//! and polls for space up to the transaction-abort timeout before
//! unwinding the pass. An unwound (aborted) pass restores every invariant
//! — phase back to `Normal`, `CleanEnd` delivered, merge-phase stragglers
//! made durable — and leaves relocated copies reachable via `new_valid`,
//! so no state is lost and the next pass (or the harness's retries) makes
//! progress.

use std::collections::HashSet;
use std::sync::atomic::Ordering;

use efactory_obs::Subsystem;
use efactory_rnic::Notifier;
use efactory_sim as sim;

use crate::layout::{self, flags, ObjHeader, NIL};
use crate::protocol::Event;
use crate::server::{CleanPhase, ServerShared};

/// Magic key prefix identifying a cleaning-progress record in the log.
/// NUL-framed like [`crate::txn::COMMIT_MAGIC`] so it can never collide
/// with workload keys, and distinct from it so the two record kinds never
/// parse as each other.
pub const CLEAN_MAGIC: &[u8; 8] = b"\0efccln\0";

/// Progress-record stages, ordered: a higher stage supersedes a lower one
/// within the same epoch.
pub const STAGE_COMPRESS: u64 = 1;
/// Merge record: persisted *before* the phase flips to Merge, so any write
/// that landed in the new pool postdates a durable record.
pub const STAGE_MERGE: u64 = 2;
/// Finish record: the per-bucket mark flip is underway (or about to be).
pub const STAGE_FINISH: u64 = 3;
/// Done record: the flip completed; only the pool swap + old-region zero
/// remain. Recovery treats the old region as dead.
pub const STAGE_DONE: u64 = 4;
/// Abort record: the pass unwound without swapping — the *old* pool is
/// still active, and without this record a stale `STAGE_DONE` from the
/// previous completed pass would outrank the aborted pass's records and
/// recovery would zero a region holding live merge-phase writes. Written
/// into a slot *reserved at pass start* (shared with the Done record), so
/// persisting it can never fail for lack of space.
pub const STAGE_ABORT: u64 = 5;

/// A decoded cleaning-progress record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CleanRecord {
    /// The epoch this pass would establish (current epoch + 1 at write).
    pub epoch: u64,
    /// One of the `STAGE_*` constants.
    pub stage: u64,
    /// Index of the pool being cleaned *from* during this pass.
    pub old_pool: usize,
}

impl CleanRecord {
    /// The record's CRC-protected value: `(stage, old_pool)`.
    fn value(&self) -> [u8; 16] {
        let mut value = [0u8; 16];
        value[..8].copy_from_slice(&self.stage.to_le_bytes());
        value[8..].copy_from_slice(&(self.old_pool as u64).to_le_bytes());
        value
    }
}

/// Parse the object at `off` as a cleaning-progress record, if it is one
/// (a torn record reads as `None`: the transition it guards never
/// happened).
pub fn decode_clean_record(pool: &efactory_pmem::PmemPool, off: usize) -> Option<CleanRecord> {
    let (epoch, value) = layout::read_record(pool, off, CLEAN_MAGIC)?;
    if value.len() != 16 {
        return None;
    }
    let word = |i: usize| u64::from_le_bytes(value[i..i + 8].try_into().expect("a 16-byte value"));
    let (stage, old_pool) = (word(0), word(8));
    if !(STAGE_COMPRESS..=STAGE_ABORT).contains(&stage) || old_pool > 1 {
        return None;
    }
    Some(CleanRecord {
        epoch,
        stage,
        old_pool: old_pool as usize,
    })
}

/// Why a cleaning pass stopped before completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Halt {
    /// The node crashed (or was restarted under us): touch nothing —
    /// recovery owns the truth from here.
    Crashed,
    /// Cooperative shutdown: unwind and exit cleanly.
    Stopped,
    /// The destination pool stayed full past the park deadline: unwind and
    /// let the backlog drain in Normal phase.
    Full,
}

/// Outcome of one [`clean`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CleanOutcome {
    /// Pools swapped; the old region is free.
    Completed,
    /// Nothing to do (single-pool deployment).
    Skipped,
    /// Unwound after parking on destination-pool space.
    Full,
    /// Unwound for cooperative shutdown.
    Stopped,
    /// The node crashed mid-pass.
    Crashed,
}

/// Crash/stop check, classified. Unlike `stopping()` this distinguishes a
/// crash (leave everything exactly as the crash instant left it) from a
/// graceful stop (restore invariants first).
fn halted(shared: &ServerShared) -> Option<Halt> {
    if shared.node.is_crashed() || shared.node.epoch() != shared.born_epoch {
        Some(Halt::Crashed)
    } else if shared.stop.load(Ordering::Relaxed) {
        Some(Halt::Stopped)
    } else {
        None
    }
}

/// Cleaner main loop: watch the active pool, clean when it fills up.
///
/// The gate also defers to migration: no pass starts while the shard is
/// sealed (the migration driver, symmetrically, waits for an in-flight
/// pass to finish before it seals — both claims flip atomically with their
/// checks, so exactly one side wins). A deferred `clean_request` is left
/// pending rather than swallowed.
pub fn run(shared: &ServerShared, notifier: &Notifier) {
    loop {
        if shared.stopping() {
            return;
        }
        if shared.phase() == CleanPhase::Normal && !shared.is_sealed() {
            let active = shared.active.load(Ordering::Relaxed);
            let requested = shared.clean_request.swap(false, Ordering::Relaxed);
            if (requested || shared.logs[active].fill_frac() >= shared.cfg.clean_threshold)
                && clean(shared, notifier) == CleanOutcome::Full
            {
                // The destination stayed full: cool down before retrying
                // so the handler can drain the Busy backlog into whatever
                // space is left.
                sim::sleep(shared.cfg.txn_abort_timeout);
            }
        }
        sim::sleep(shared.cfg.clean_poll);
    }
}

/// Run one full cleaning pass (public so tests and the Figure 11 harness
/// can force cleaning at a chosen instant).
pub fn clean(shared: &ServerShared, notifier: &Notifier) -> CleanOutcome {
    let old = shared.active.load(Ordering::Relaxed);
    let new = 1 - old;
    if shared.logs[new].is_empty() {
        return CleanOutcome::Skipped; // single-pool deployment
    }
    // Claim the pass *before the first yield*: the run() gate and the
    // migration driver's wait-for-Normal both rely on the phase flipping
    // atomically with their checks.
    shared
        .clean_phase
        .store(CleanPhase::Compress as u8, Ordering::Relaxed);
    // Reserve the terminal record's slot up front (Done on success, Abort
    // on unwind): the one persist that must never fail is paid for before
    // the pass mutates anything. Allocation is yield-free, so a failure
    // here un-claims the phase without anyone having observed it.
    let Some(terminal_off) = shared.logs[new].alloc(layout::record_size(16)) else {
        shared
            .clean_phase
            .store(CleanPhase::Normal as u8, Ordering::Relaxed);
        return CleanOutcome::Full;
    };
    let epoch = shared.clean_epoch.load(Ordering::Relaxed) + 1;
    let tracer = &shared.cfg.obs.tracer;
    let _sp = tracer.span(Subsystem::Cleaner, "clean");
    tracer.event(Subsystem::Cleaner, "clean_start");
    let _ = notifier.notify_all(&Event::CleanStart.encode());

    let outcome = match clean_pass(shared, old, new, epoch, terminal_off) {
        Ok(()) => CleanOutcome::Completed,
        Err(Halt::Crashed) => {
            // The crash instant's persisted state is what recovery will
            // see; mutating anything now would tamper with the evidence.
            return CleanOutcome::Crashed;
        }
        Err(halt) => {
            unwind(shared, old, epoch, terminal_off);
            match halt {
                Halt::Stopped => CleanOutcome::Stopped,
                _ => CleanOutcome::Full,
            }
        }
    };
    tracer.event(Subsystem::Cleaner, "clean_finish");
    let _ = notifier.notify_all(&Event::CleanEnd.encode());
    outcome
}

/// The compress → merge → finish → swap body. Returns `Err` with the halt
/// reason at the first crash/stop/space failure; `clean` classifies it.
/// `terminal_off` is the pre-reserved slot for the Done record.
fn clean_pass(
    shared: &ServerShared,
    old: usize,
    new: usize,
    epoch: u64,
    terminal_off: usize,
) -> Result<(), Halt> {
    let tracer = &shared.cfg.obs.tracer;

    // ---- Stage 1: log compressing -----------------------------------------
    // The phase is already Compress (claimed by `clean`); the progress
    // record lands right behind it. A crash in the gap is indistinguishable
    // from a pre-clean crash — nothing has been relocated yet — so the
    // no-record recovery path handles it.
    write_progress(shared, new, epoch, STAGE_COMPRESS, old)?;
    let compress_start = shared.logs[old].head();
    // Hole-tolerant: after a mid-clean crash recovery the active pool can
    // hold holes below its head (the crashed pass's unwritten terminal
    // record slot, torn client writes under persisted relocations); a
    // scan that stopped at the first hole would relocate nothing and the
    // finish pass would drop every key anchored above it.
    let offs = shared.logs[old].scan_until_tolerant(&shared.pool, compress_start);
    let mut seen: HashSet<u64> = HashSet::with_capacity(offs.len());
    for &off in offs.iter().rev() {
        if let Some(h) = halted(shared) {
            return Err(h);
        }
        sim::work(shared.cost.cpu_hash_ns);
        let hdr = ObjHeader::read_from(&shared.pool, off);
        let key = layout::read_key(&shared.pool, off, &hdr);
        let fp = crate::hashtable::fingerprint(&key);
        if seen.contains(&fp) {
            shared.stats.reclaimed_versions.inc();
            continue;
        }
        if stale_above_current(shared, old, off, fp) {
            // A pool that was itself produced by cleaning is not
            // offset-ordered by version: merge-stage relocations append
            // stale copies *above* newer merge-phase client writes. The
            // key's current version is still ahead in this scan — leave
            // the fingerprint unseen so it gets relocated when reached.
            shared.stats.reclaimed_versions.inc();
            continue;
        }
        seen.insert(fp);
        relocate(shared, off, fp, new, CleanPhase::Compress)?;
    }

    // ---- Stage 2: log merging ---------------------------------------------
    // Record first, then flip: any client write that lands in the new pool
    // strictly postdates a durable Merge record, so recovery never sees
    // merge-phase writes without knowing the new pool holds current data.
    write_progress(shared, new, epoch, STAGE_MERGE, old)?;
    // New-pool head before any merge-phase client write: everything at or
    // above it needs the straggler durability sweep if the pass unwinds.
    let merge_fence = shared.logs[new].head();
    tracer.event(Subsystem::Cleaner, "clean_merge");
    shared
        .clean_phase
        .store(CleanPhase::Merge as u8, Ordering::Relaxed);
    // From here on the handler allocates in the new pool; the old pool's
    // head is frozen.
    let merge_end = shared.logs[old].head();
    let offs2 = shared.logs[old].scan_until_tolerant(&shared.pool, merge_end);
    let mut seen2: HashSet<u64> = HashSet::new();
    for &off in offs2.iter().rev() {
        if off < compress_start {
            break; // reached the compress range (offs are sorted ascending)
        }
        if let Some(h) = halted(shared) {
            drain_merge_stragglers(shared, new, merge_fence)?;
            return Err(h);
        }
        sim::work(shared.cost.cpu_hash_ns);
        let hdr = ObjHeader::read_from(&shared.pool, off);
        let key = layout::read_key(&shared.pool, off, &hdr);
        let fp = crate::hashtable::fingerprint(&key);
        if seen2.contains(&fp) {
            shared.stats.reclaimed_versions.inc();
            continue;
        }
        if stale_above_current(shared, old, off, fp) {
            // Same offset-order caveat as the compress scan: never let a
            // stale duplicate swallow the current version below it.
            shared.stats.reclaimed_versions.inc();
            continue;
        }
        seen2.insert(fp);
        if let Err(h) = relocate(shared, off, fp, new, CleanPhase::Merge) {
            if h != Halt::Crashed {
                drain_merge_stragglers(shared, new, merge_fence)?;
            }
            return Err(h);
        }
    }

    // ---- Finish --------------------------------------------------------------
    write_progress(shared, new, epoch, STAGE_FINISH, old)?;
    let buckets = shared.ht.buckets();
    for idx in 0..buckets {
        if let Some(h) = halted(shared) {
            if h != Halt::Crashed {
                drain_merge_stragglers(shared, new, merge_fence)?;
            }
            return Err(h);
        }
        // Mutation block: read-check-update one bucket without yielding.
        let e = shared.ht.read(&shared.pool, idx);
        if e.fp == 0 {
            continue;
        }
        if e.ctl.mark() == new {
            if e.ctl.new_valid() {
                // Mixed-anchor key (a mid-clean recovery left its mark on
                // the new pool) whose newest version sat in the old-pool
                // slot; relocation duplicated that version into the mark
                // slot, so drop the old-pool offset and clear the bit.
                shared.ht.set_slot(&shared.pool, idx, old, 0);
                shared
                    .ht
                    .set_ctl(&shared.pool, idx, e.ctl.with_new_valid(false).bumped());
            } else {
                // Key first written during the merge phase (fresh bucket
                // whose mark was pointed straight at the new pool):
                // nothing to flip.
                debug_assert_eq!(e.slot[old], 0, "merge-fresh key with an old-pool offset");
                continue;
            }
        } else if e.ctl.new_valid() {
            debug_assert_ne!(e.slot[new], 0, "new_valid without a new-pool offset");
            shared.ht.set_slot(&shared.pool, idx, old, 0);
            shared.ht.set_ctl(
                &shared.pool,
                idx,
                e.ctl.with_mark(new).with_new_valid(false).bumped(),
            );
        } else {
            // No intact version made it to the new pool: the key's chain
            // was entirely torn/invalid, so the key was never durably
            // written. Drop it.
            shared.ht.clear(&shared.pool, idx);
        }
        let lines = shared.ht.persist_entry(&shared.pool, idx);
        sim::work(shared.cost.flush(lines * efactory_pmem::LINE) + shared.cost.cpu_hash_ns / 4);
    }

    // Done record: the flip is complete, every anchor is in the new pool.
    // From a durable Done record onward, recovery treats the old region as
    // dead and re-zeroes it — which also covers a crash landing between
    // here and the zero below. Written into the pre-reserved terminal
    // slot, so it cannot fail.
    if let Some(h) = halted(shared) {
        return Err(h);
    }
    write_progress_at(shared, terminal_off, epoch, STAGE_DONE, old);

    // ---- Swap: one no-yield block ------------------------------------------
    shared.active.store(new, Ordering::Relaxed);
    shared
        .clean_phase
        .store(CleanPhase::Normal as u8, Ordering::Relaxed);
    shared.cursor_pool.store(new, Ordering::Relaxed);
    shared
        .cursor
        .store(shared.logs[new].base() as u64, Ordering::Relaxed);
    shared.clean_epoch.store(epoch, Ordering::Relaxed);
    // Snapshots captured before the swap could name relocated versions by
    // stale offsets: expire them and drop the offset-keyed timestamps
    // (pool-reset offsets would otherwise alias).
    crate::txn::on_clean_swap(shared);
    let (obase, olen) = (shared.logs[old].base(), shared.logs[old].len());
    shared.pool.zero_region(obase, olen);
    shared.logs[old].reset();
    shared.clean_stalled.store(false, Ordering::Relaxed);
    // ---- end swap block ----
    shared.stats.cleanings.inc();
    Ok(())
}

/// Persist a cleaning-progress record into pool `dst` *before* the stage
/// transition it announces. The record is durable when this returns.
fn write_progress(
    shared: &ServerShared,
    dst: usize,
    epoch: u64,
    stage: u64,
    old: usize,
) -> Result<(), Halt> {
    if let Some(h) = halted(shared) {
        return Err(h);
    }
    let Some(off) = shared.logs[dst].alloc(layout::record_size(16)) else {
        // No room for even a record: the pass cannot make progress.
        return Err(Halt::Full);
    };
    write_progress_at(shared, off, epoch, stage, old);
    Ok(())
}

/// Persist a cleaning-progress record into an already-allocated slot (the
/// pre-reserved terminal slot, or a fresh allocation from
/// [`write_progress`]). Cannot fail; durable on return.
fn write_progress_at(shared: &ServerShared, off: usize, epoch: u64, stage: u64, old: usize) {
    let rec = CleanRecord {
        epoch,
        stage,
        old_pool: old,
    };
    // Written + persisted without yielding.
    let lines = layout::write_record(
        &shared.pool,
        off,
        CLEAN_MAGIC,
        epoch,
        &rec.value(),
        sim::now(),
    );
    sim::work(shared.cost.cpu_alloc_ns + shared.cost.flush(lines * efactory_pmem::LINE));
    shared.cfg.obs.tracer.event_args(
        Subsystem::Cleaner,
        "clean_progress",
        &[("epoch", epoch), ("stage", stage)],
    );
}

/// Restore every invariant after an aborted (not crashed) pass: phase back
/// to Normal, backpressure released, a durable Abort record in the
/// reserved terminal slot (so recovery knows the swap never happened), and
/// the aborted epoch burned so the next pass's records outrank this one's.
/// Relocated copies stay reachable — `new_valid` marks them and reads
/// honor it in every phase — so no bucket surgery is needed.
fn unwind(shared: &ServerShared, old: usize, epoch: u64, terminal_off: usize) {
    shared
        .cfg
        .obs
        .tracer
        .event(Subsystem::Cleaner, "clean_abort");
    write_progress_at(shared, terminal_off, epoch, STAGE_ABORT, old);
    // Burn the epoch: the aborted pass's records (epoch N+1) must never
    // outrank a later pass's, so the next pass starts at N+2.
    shared.clean_epoch.fetch_add(1, Ordering::Relaxed);
    // Snapshots captured before the pass could now resolve relocated
    // copies (timestamp 0) as too-new versions: expire them.
    crate::txn::expire_snapshots(shared);
    shared.clean_stalled.store(false, Ordering::Relaxed);
    shared
        .clean_phase
        .store(CleanPhase::Normal as u8, Ordering::Relaxed);
}

/// Make every merge-phase client write at or above `fence` durable (or
/// invalidate it, verifier-style). On an abort the verifier's cursor never
/// re-bases into the new pool, so without this sweep those acknowledged
/// writes would stay unverified forever — breaking the bounded-durability
/// contract the background verifier provides in Normal operation.
fn drain_merge_stragglers(shared: &ServerShared, new: usize, fence: usize) -> Result<(), Halt> {
    let head = shared.logs[new].head();
    // Hole-tolerant: the new pool starts with this pass's reserved (still
    // unwritten, all-zero) terminal record slot, which a size-chain walk
    // would mistake for the unwritten tail and stop at.
    for off in shared.logs[new].scan_until_tolerant(&shared.pool, head) {
        if off < fence {
            continue;
        }
        loop {
            if let Some(h) = halted(shared) {
                return Err(h);
            }
            let hdr = ObjHeader::read_from(&shared.pool, off);
            if !hdr.has(flags::VALID) || hdr.has(flags::DURABLE) {
                break;
            }
            if let Some(lines) = shared.persist_if_intact(off, &hdr) {
                sim::work(shared.cost.flush(lines * efactory_pmem::LINE));
                break;
            }
            if sim::now().saturating_sub(hdr.alloc_time) > shared.cfg.verify_timeout {
                layout::update_flags(&shared.pool, off, 0, flags::VALID);
                shared.pool.flush(off, 8);
                shared.pool.drain();
                shared.stats.bg_timeouts.inc();
                break;
            }
            sim::sleep(shared.cfg.verify_idle);
        }
    }
    Ok(())
}

/// Emergency in-place reclaim: clear every bucket whose current version is
/// a durable tombstone. Frees neither pool directly, but cancels the
/// relocation work (and new-pool bytes) those keys would have cost — the
/// escape valve that keeps a stalled clean from deadlocking the store.
fn reclaim_tombstones(shared: &ServerShared) {
    let buckets = shared.ht.buckets();
    let mut cleared = 0u64;
    for idx in 0..buckets {
        // Mutation block per bucket: read-check-clear without yielding.
        let e = shared.ht.read(&shared.pool, idx);
        if e.fp == 0 {
            continue;
        }
        let head = shared.current_off(&e);
        if head == 0 || head == NIL {
            continue;
        }
        let hdr = ObjHeader::read_from(&shared.pool, head as usize);
        if hdr.has(flags::VALID)
            && hdr.has(flags::DURABLE)
            && hdr.has(flags::TOMBSTONE)
            && !hdr.has(flags::PENDING)
        {
            shared.ht.clear(&shared.pool, idx);
            shared.ht.persist_entry(&shared.pool, idx);
            shared.stats.reclaimed_versions.inc();
            cleared += 1;
        }
    }
    sim::work(shared.cost.cpu_hash_ns * (buckets as u64 / 16).max(1));
    shared.cfg.obs.tracer.event_args(
        Subsystem::Cleaner,
        "reclaim_tombstones",
        &[("cleared", cleared)],
    );
}

/// Allocate `size` bytes in pool `dst`, parking under backpressure when the
/// pool is full: raise `clean_stalled` (the handler answers `Busy`), run
/// the emergency tombstone reclaim, and poll until space appears or the
/// park deadline passes.
fn alloc_parked(shared: &ServerShared, dst: usize, size: usize) -> Result<usize, Halt> {
    if let Some(off) = shared.logs[dst].alloc(size) {
        return Ok(off);
    }
    shared.stats.cleaner_stalls.inc();
    shared.clean_stalled.store(true, Ordering::Relaxed);
    shared
        .cfg
        .obs
        .tracer
        .event(Subsystem::Cleaner, "cleaner_stall");
    reclaim_tombstones(shared);
    let start = sim::now();
    let deadline = start + shared.cfg.txn_abort_timeout;
    let res = loop {
        if let Some(h) = halted(shared) {
            break Err(h);
        }
        if let Some(off) = shared.logs[dst].alloc(size) {
            break Ok(off);
        }
        if sim::now() >= deadline {
            break Err(Halt::Full);
        }
        sim::sleep(shared.cfg.clean_poll);
    };
    shared
        .stats
        .cleaner_park_ns
        .add(sim::now().saturating_sub(start));
    if res.is_ok() {
        // Unparked: lift the backpressure. On failure the flag stays up
        // through the unwind (cleared there), keeping writers off the
        // pools while invariants are restored.
        shared.clean_stalled.store(false, Ordering::Relaxed);
    }
    res
}

/// Relocate the version chain headed at `head_off` (the newest version of
/// its key within the scanned range) into pool `dst`.
/// True when the bucket says the key's current version sits at a *lower*
/// offset in the same source pool — i.e. the scanned object at `off` is a
/// stale duplicate appended above the current by an earlier pass's
/// merge-stage relocation. The reverse scan must not treat it as the
/// key's newest version: the real current is still ahead.
fn stale_above_current(shared: &ServerShared, old: usize, off: usize, fp: u64) -> bool {
    let Some((_, e)) = shared.ht.lookup(&shared.pool, fp) else {
        return false;
    };
    let cur = shared.current_off(&e) as usize;
    let region = &shared.logs[old];
    cur != off && cur >= region.base() && cur < region.base() + region.len() && cur < off
}

fn relocate(
    shared: &ServerShared,
    head_off: usize,
    fp: u64,
    dst: usize,
    stage: CleanPhase,
) -> Result<(), Halt> {
    let Some((idx, entry)) = shared.ht.lookup(&shared.pool, fp) else {
        return Ok(()); // bucket dropped (e.g. tombstone reclaimed earlier)
    };

    // Merge-stage D1/D2 rule: if the key's newest version already lives in
    // the new pool (written during merging, or relocated during
    // compression and not superseded), skip this old-pool version —
    // provided the new-pool one is durable or can be made durable.
    if stage == CleanPhase::Merge && entry.ctl.new_valid() {
        let new_off = entry.slot[dst];
        if new_off != 0 {
            let new_hdr = ObjHeader::read_from(&shared.pool, new_off as usize);
            let head_hdr = ObjHeader::read_from(&shared.pool, head_off);
            if new_hdr.seq >= head_hdr.seq && ensure_intact(shared, new_off as usize) {
                shared.stats.reclaimed_versions.inc();
                return Ok(());
            }
        }
    }

    // Wait for an in-flight head (bounded by the verifier timeout), then
    // pick the newest intact version of the chain: `Ok` is the head
    // itself, `Err(pre)` falls back along the chain from `pre`.
    let src = loop {
        if let Some(h) = halted(shared) {
            return Err(h);
        }
        let hdr = ObjHeader::read_from(&shared.pool, head_off);
        if hdr.has(flags::VALID) && hdr.has(flags::PENDING) {
            // In-doubt staged head. It cannot be copied (publish clears
            // PENDING at the source offset only — the copy would stay
            // in-doubt forever) and cannot be walked past (the
            // transaction may still commit). Wait for the decide RPC, or
            // force the presumed-abort sweep once the prepare is overdue;
            // either way the bit resolves within the abort timeout.
            if sim::now().saturating_sub(hdr.alloc_time) > shared.cfg.txn_abort_timeout {
                crate::txn::sweep_expired(shared);
            }
            if shared.in_doubt(head_off as u64) {
                sim::sleep(shared.cfg.verify_idle);
                // A decide may have replaced the head while we slept.
                match shared.ht.lookup(&shared.pool, fp) {
                    Some((_, e2)) if shared.current_off(&e2) == head_off as u64 => {}
                    _ => return Ok(()), // key moved on; later work owns it
                }
            }
            continue;
        }
        if hdr.has(flags::VALID) && hdr.has(flags::DURABLE) {
            // Durable, but verify anyway: silently rotted bytes must not
            // become the key's only surviving copy in the new pool.
            sim::work(shared.cost.crc_hw(hdr.vlen as usize));
            if layout::value_intact(&shared.pool, head_off, &hdr) {
                break Ok((head_off, hdr));
            }
            // Rotted: quarantine like the scrubber would and fall back to
            // the newest intact ancestor.
            layout::update_flags(&shared.pool, head_off, flags::QUARANTINED, flags::VALID);
            shared.pool.flush(head_off, 8);
            shared.pool.drain();
            shared.scrub.quarantined.inc();
            shared.cfg.obs.tracer.event_args(
                Subsystem::Cleaner,
                "quarantine",
                &[("off", head_off as u64)],
            );
            break Err(hdr.pre_ptr);
        }
        if hdr.has(flags::VALID) {
            sim::work(shared.cost.crc_hw(hdr.vlen as usize));
            if layout::value_intact(&shared.pool, head_off, &hdr) {
                break Ok((head_off, hdr));
            }
            if sim::now().saturating_sub(hdr.alloc_time) <= shared.cfg.verify_timeout {
                // Still within its window — wait like the verifier would.
                sim::sleep(shared.cfg.verify_idle);
                // A newer version may have appeared while waiting; if so,
                // a later scan position (or the merge stage) owns this key.
                if let Some((_, e2)) = shared.ht.lookup(&shared.pool, fp) {
                    if shared.current_off(&e2) != head_off as u64 {
                        return Ok(());
                    }
                }
                continue;
            }
            // Timed out: invalidate, like the verifier.
            layout::update_flags(&shared.pool, head_off, 0, flags::VALID);
            shared.pool.flush(head_off, 8);
            shared.pool.drain();
            shared.stats.bg_timeouts.inc();
            shared.cfg.obs.tracer.event_args(
                Subsystem::Cleaner,
                "invalidate",
                &[("off", head_off as u64)],
            );
        }
        // Fall back along the chain for the newest intact ancestor.
        break Err(hdr.pre_ptr);
    };
    // In-doubt (`PENDING`) versions are never intact for relocation
    // purposes — a mid-chain one means its transaction aborted without the
    // flag store landing.
    let (src_off, src_hdr) = match src {
        Ok(head) => head,
        Err(pre) => match shared.ensure_durable_version(pre) {
            None => return Ok(()), // nothing intact: the finish pass drops the bucket
            Some((off, hdr, None)) => (off as usize, hdr),
            Some((off, _, Some(lines))) => {
                sim::work(shared.cost.flush(lines * efactory_pmem::LINE));
                (
                    off as usize,
                    ObjHeader::read_from(&shared.pool, off as usize),
                )
            }
        },
    };

    // Tombstone heading the chain: the key is deleted; reclaim it now if
    // it is still the key's current version.
    if src_hdr.has(flags::TOMBSTONE) {
        let e = shared.ht.read(&shared.pool, idx);
        if shared.current_off(&e) == head_off as u64 {
            shared.ht.clear(&shared.pool, idx);
            shared.ht.persist_entry(&shared.pool, idx);
            shared.stats.reclaimed_versions.inc();
        }
        return Ok(());
    }

    // Copy into the destination pool (already durable ⇒ copy is durable).
    let size = src_hdr.object_size();
    let noff = alloc_parked(shared, dst, size)?;
    // ---- mutation block: build the relocated object ----
    let mut reloc_hdr = src_hdr;
    reloc_hdr.pre_ptr = NIL;
    reloc_hdr.next_ptr = NIL;
    reloc_hdr.flags = src_hdr.flags | flags::DURABLE;
    reloc_hdr.write_to(&shared.pool, noff);
    let mut body = vec![0u8; size - layout::HDR_LEN];
    shared.pool.read(src_off + layout::HDR_LEN, &mut body);
    shared.pool.write(noff + layout::HDR_LEN, &body);
    // If the source was verified-intact but not yet flagged durable,
    // persist the copy (and the flag is already set in the copy's header).
    shared.pool.flush(noff, size);
    shared.pool.drain();
    // ---- end mutation block ----
    sim::work(shared.cost.memcpy(size) + shared.cost.flush(size));

    // Link: if the key's current version is still `head_off`, point the
    // entry's new-pool slot at the copy; otherwise repair the successor's
    // back-pointer (paper's PrePTR fix + Trans flag).
    let e = shared.ht.read(&shared.pool, idx);
    if shared.current_off(&e) == head_off as u64 {
        shared.ht.set_slot(&shared.pool, idx, dst, noff as u64);
        shared
            .ht
            .set_sizes(&shared.pool, idx, src_hdr.klen, src_hdr.vlen);
        shared
            .ht
            .set_ctl(&shared.pool, idx, e.ctl.with_new_valid(true).bumped());
        shared.ht.persist_entry(&shared.pool, idx);
    } else if src_hdr.next_ptr != NIL && successor_matches(shared, src_hdr.next_ptr, fp) {
        let succ = src_hdr.next_ptr as usize;
        layout::set_pre_ptr(&shared.pool, succ, noff as u64);
        layout::update_flags(&shared.pool, succ, flags::TRANS, 0);
        shared.pool.flush(succ, 24);
        shared.pool.drain();
    }
    shared.stats.relocated.inc();
    sim::work(shared.cost.cpu_hash_ns);
    Ok(())
}

/// Whether `next` points at a plausible successor *of the same key*.
/// `next_ptr` is unflushed working state; after a mid-clean recovery it can
/// be stale garbage, and repairing a random object's back-pointer through
/// it would corrupt an unrelated chain.
fn successor_matches(shared: &ServerShared, next: u64, fp: u64) -> bool {
    let off = next as usize;
    if !shared.logs.iter().any(|r| r.contains(off)) {
        return false;
    }
    let hdr = ObjHeader::read_from(&shared.pool, off);
    if hdr.klen == 0 || !hdr.plausible() {
        return false;
    }
    let key = layout::read_key(&shared.pool, off, &hdr);
    crate::hashtable::fingerprint(&key) == fp
}

/// Check (and if needed make) the object at `off` durable; `false` if torn.
fn ensure_intact(shared: &ServerShared, off: usize) -> bool {
    let hdr = ObjHeader::read_from(&shared.pool, off);
    if hdr.has(flags::DURABLE) {
        return true;
    }
    if !hdr.has(flags::VALID) {
        return false;
    }
    let Some(lines) = shared.persist_if_intact(off, &hdr) else {
        return false;
    };
    sim::work(shared.cost.flush(lines * efactory_pmem::LINE));
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use efactory_pmem::PmemPool;

    #[test]
    fn clean_record_round_trips_and_rejects_torn_and_foreign_records() {
        let pool = PmemPool::new(4096);
        let rec = CleanRecord {
            epoch: 7,
            stage: STAGE_MERGE,
            old_pool: 1,
        };
        layout::write_record(&pool, 64, CLEAN_MAGIC, rec.epoch, &rec.value(), 0);
        assert_eq!(decode_clean_record(&pool, 64), Some(rec));
        // A clean record never parses as a commit record.
        assert!(crate::txn::committed_versions(&pool, &[64]).is_empty());
        // Torn value: the CRC no longer matches.
        let hdr = ObjHeader::read_from(&pool, 64);
        pool.write(64 + hdr.value_off(), &[0xFF]);
        assert_eq!(decode_clean_record(&pool, 64), None);
        // Same bytes under the commit magic: not a clean record.
        layout::write_record(&pool, 256, crate::txn::COMMIT_MAGIC, 7, &rec.value(), 0);
        assert_eq!(decode_clean_record(&pool, 256), None);
    }
}
