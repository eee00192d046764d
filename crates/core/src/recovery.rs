//! Crash recovery: rebuild a consistent store from the post-crash media
//! image.
//!
//! This is where the multi-version design pays off (paper §4.1): for every
//! hash entry that survived, the recovery pass walks the version list from
//! the newest version and keeps the first *intact* one — durable-flagged,
//! or CRC-verifiable (data that reached NVM through eviction or partial
//! flushing but whose flag write was lost). Torn heads are discarded; keys
//! with no intact version are dropped entirely (they were never durably
//! written, so no acknowledged durability is lost).
//!
//! The allocation heads of both pools are rebuilt by scanning headers until
//! the first hole or implausible size — safe because PUT persists the
//! header + key *before* exposing the object, so every reachable object has
//! a sane persisted header. (During a clean's merge phase the handler and
//! the cleaner allocate from the same pool concurrently, so a torn client
//! write can leave a hole *below* persisted relocations — the region scan
//! is hole-tolerant for exactly this case.)
//!
//! # Mid-clean crashes
//!
//! A crash during log cleaning leaves versions of one key in both pools,
//! half-relocated chains, `Trans`-flagged back-pointers, and possibly a
//! torn pool swap. Two mechanisms make this tractable:
//!
//! * The cleaner persists a **progress record** before each stage
//!   transition ([`crate::cleaner::decode_clean_record`]). The highest
//!   `(epoch, stage)` record tells recovery which pool was active at the
//!   crash instant instead of guessing from slot states:
//!
//!   | newest record | active pool | old region |
//!   |---------------|-------------|------------|
//!   | none          | fill heuristic | kept |
//!   | `Compress`    | the recorded old pool | kept |
//!   | `Merge` / `Finish` | the other pool | kept (chains span both) |
//!   | `Done`        | the other pool | dead — re-zeroed here |
//!   | `Abort`       | the recorded old pool (swap never happened) | kept |
//!
//! * Per-bucket candidate order honors `new_valid`: when set, the non-mark
//!   slot holds the newer version (merge-phase write or relocated copy)
//!   and is tried first, so recovery never anchors an older version while
//!   a newer acknowledged one survives in the other pool.
//!
//! In-doubt (`PENDING`) versions are kept only when a durable commit
//! record names their `(fingerprint, seq, value crc)` identity — identity,
//! not offset, because cleaning relocates versions between records' write
//! and the crash.

use std::sync::Arc;

use efactory_pmem::PmemPool;
use efactory_rnic::{Fabric, Node};

use crate::hashtable::{fingerprint, Ctl};
use crate::layout::{self, flags, ObjHeader, NIL};
use crate::log::StoreLayout;
use crate::server::{Server, ServerConfig};

/// What recovery found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Keys whose newest intact version was the pre-crash newest version.
    pub keys_intact: usize,
    /// Keys recovered to an older version (the newest was torn).
    pub keys_rolled_back: usize,
    /// Keys dropped (no intact version at all).
    pub keys_lost: usize,
    /// Torn/invalid versions discarded while walking chains.
    pub versions_discarded: usize,
    /// Rebuilt allocation heads.
    pub heads: [usize; 2],
}

/// Rebuild a server from `pool` (typically just crashed + node restarted).
/// Returns the new server and a report of what recovery decided.
///
/// The caller is responsible for having called `fabric.restart_node(node)`
/// first; this function re-registers the memory region via
/// [`Server::with_pool`].
pub fn recover(
    fabric: &Fabric,
    node: &Node,
    pool: Arc<PmemPool>,
    layout: StoreLayout,
    cfg: ServerConfig,
) -> (Server, RecoveryReport) {
    let mut report = RecoveryReport::default();
    let ht = layout.hashtable();
    let regions = layout.regions();

    // Rebuild allocation heads first so chain validation can bounds-check.
    // Keep the scanned object offsets: durable transaction commit records
    // among them decide the fate of in-doubt (PENDING) versions.
    let mut heads = [0usize; 2];
    let mut objs: Vec<usize> = Vec::new();
    for (i, r) in regions.iter().enumerate() {
        if r.is_empty() {
            heads[i] = r.base();
            continue;
        }
        let (region_objs, head) = r.scan_for_recovery(&pool);
        objs.extend(region_objs);
        heads[i] = head;
    }
    // The newest cleaning-progress record decides which pool was active
    // and whether the old region is dead (see the module docs' table).
    let clean_rec = objs
        .iter()
        .filter_map(|&off| crate::cleaner::decode_clean_record(&pool, off))
        .max_by_key(|r| (r.epoch, r.stage));
    let mut active_override = None;
    let mut clean_epoch = 0;
    if let Some(rec) = clean_rec {
        clean_epoch = rec.epoch;
        active_override = Some(match rec.stage {
            crate::cleaner::STAGE_COMPRESS | crate::cleaner::STAGE_ABORT => rec.old_pool,
            _ => 1 - rec.old_pool,
        });
        if rec.stage == crate::cleaner::STAGE_DONE {
            // The flip completed before the crash: every anchor already
            // points into the new pool and the old region holds only dead
            // pre-clean versions. Finish the torn swap's final step.
            let r = &regions[rec.old_pool];
            pool.zero_region(r.base(), r.len());
            heads[rec.old_pool] = r.base();
        }
    }
    report.heads = heads;

    // Version identities named by a durable commit record: these
    // transactions reached their commit point, so their versions are kept
    // (all-or-nothing). Staged versions *not* named never committed.
    let committed = crate::txn::committed_versions(&pool, &objs);

    let in_bounds = |off: u64| -> bool {
        let off = off as usize;
        regions
            .iter()
            .enumerate()
            .any(|(i, r)| off >= r.base() && off + layout::HDR_LEN <= heads[i])
    };

    // Validate every surviving hash entry.
    for idx in 0..ht.buckets() {
        let e = ht.read(&pool, idx);
        if e.fp == 0 {
            continue;
        }
        // Candidate chain heads, newest first. `new_valid` set means the
        // non-mark slot holds the newer version (a merge-phase write or a
        // relocated copy of the mark-slot head), so it is tried first;
        // otherwise the mark slot leads (covers a crash mid-cleaning,
        // where either may hold the newest intact copy).
        let candidates = if e.ctl.new_valid() {
            [e.other(), e.current()]
        } else {
            [e.current(), e.other()]
        };
        let mut found = None;
        let mut discarded = 0;
        'outer: for &start in &candidates {
            let mut off = start;
            while off != 0 && off != NIL && in_bounds(off) {
                let hdr = ObjHeader::read_from(&pool, off as usize);
                if !hdr.plausible() {
                    break;
                }
                let key = layout::read_key(&pool, off as usize, &hdr);
                if fingerprint(&key) != e.fp {
                    break; // chain walked into garbage
                }
                let intact = hdr.has(flags::VALID)
                    && (!hdr.has(flags::PENDING) || committed.contains(&(e.fp, hdr.seq, hdr.crc)))
                    && layout::value_intact(&pool, off as usize, &hdr);
                if intact {
                    found = Some((off, hdr));
                    break 'outer;
                }
                discarded += 1;
                off = hdr.pre_ptr;
            }
        }
        report.versions_discarded += discarded;
        match found {
            Some((off, hdr)) => {
                if off == candidates[0] && discarded == 0 {
                    report.keys_intact += 1;
                } else {
                    report.keys_rolled_back += 1;
                }
                // Re-anchor the entry at the intact version, in slot 0
                // semantics... keep the slot that already holds it when
                // possible; otherwise rewrite slot 0.
                let slot = if regions[0].contains(off as usize) {
                    0
                } else {
                    1
                };
                ht.set_slot(&pool, idx, slot, off);
                ht.set_slot(&pool, idx, 1 - slot, 0);
                ht.set_sizes(&pool, idx, hdr.klen, hdr.vlen);
                ht.set_ctl(&pool, idx, Ctl::default().with_mark(slot).bumped());
                // The version is intact: mark it durable (its flag write
                // may have been lost in the crash), clear any leftover
                // in-doubt bit (a commit record vouched for it), and cut
                // the stale forward link.
                layout::update_flags(
                    &pool,
                    off as usize,
                    flags::DURABLE,
                    flags::TRANS | flags::PENDING,
                );
                layout::set_next_ptr(&pool, off as usize, NIL);
                pool.persist(off as usize, layout::HDR_LEN);
                ht.persist_entry(&pool, idx);
            }
            None => {
                report.keys_lost += 1;
                ht.clear(&pool, idx);
                ht.persist_entry(&pool, idx);
            }
        }
    }

    let server = Server::with_pool(fabric, node, pool, layout, cfg);
    let shared = server.shared();
    for (i, r) in shared.logs.iter().enumerate() {
        r.set_head(heads[i]);
    }
    // Everything reachable is durable post-recovery; park the verifier at
    // the heads. New writes append beyond them. A cleaning-progress record
    // names the active pool authoritatively; without one, fall back to the
    // fill heuristic (a store that never cleaned writes to pool 0, or to
    // whichever pool plainly holds the data).
    let active = active_override.unwrap_or_else(|| {
        if heads[1] > shared.logs[1].base()
            && heads[1] - shared.logs[1].base() > heads[0] - shared.logs[0].base()
        {
            1
        } else {
            0
        }
    });
    shared
        .active
        .store(active, std::sync::atomic::Ordering::Relaxed);
    // Restore the epoch counter past every record ever written, so the
    // next pass's records (epoch + 1) outrank any stale ones on the pools.
    shared
        .clean_epoch
        .store(clean_epoch, std::sync::atomic::Ordering::Relaxed);
    shared
        .cursor_pool
        .store(active, std::sync::atomic::Ordering::Relaxed);
    shared
        .cursor
        .store(heads[active] as u64, std::sync::atomic::Ordering::Relaxed);
    (server, report)
}

/// Erase every cleaning-progress record on `pool` (clear `VALID`,
/// persist the flag word). Backup promotion calls this before replaying a
/// mirrored image: after a pool swap the mirror re-sends the new pool
/// lowest-offset-first, so a backup image can hold a pass's records
/// *without* the relocated data they describe — a state no crashed
/// primary ever exhibits, and one where the `Done` rule's old-region zero
/// would destroy fully-mirrored data. The fill heuristic plus dual-slot
/// candidate walks recover such a mixed image correctly; the records
/// would not. Returns how many records were erased.
pub fn neutralize_clean_records(pool: &PmemPool, layout: &StoreLayout) -> usize {
    let mut erased = 0;
    for r in layout.regions().iter() {
        if r.is_empty() {
            continue;
        }
        let (objs, _head) = r.scan_for_recovery(pool);
        for off in objs {
            if crate::cleaner::decode_clean_record(pool, off).is_some() {
                layout::update_flags(pool, off, 0, flags::VALID);
                pool.persist(off, 8);
                erased += 1;
            }
        }
    }
    erased
}

/// Consistency check used by tests: every hash entry points at a durable,
/// CRC-valid object whose key matches the entry fingerprint. Returns the
/// number of live keys, panicking with a description on any violation.
pub fn check_consistency(pool: &PmemPool, layout: &StoreLayout) -> usize {
    let ht = layout.hashtable();
    let mut live = 0;
    ht.for_each_occupied(pool, |idx, e| {
        // The newest version lives in the non-mark slot when `new_valid`
        // is set (merge-phase write or relocated copy).
        let off = if e.ctl.new_valid() {
            e.other()
        } else {
            e.current()
        };
        assert!(off != 0, "bucket {idx}: zero offset");
        let hdr = ObjHeader::read_from(pool, off as usize);
        assert!(hdr.has(flags::VALID), "bucket {idx}: invalid head");
        assert!(hdr.has(flags::DURABLE), "bucket {idx}: non-durable head");
        let key = layout::read_key(pool, off as usize, &hdr);
        assert_eq!(fingerprint(&key), e.fp, "bucket {idx}: fp mismatch");
        assert!(
            layout::value_intact(pool, off as usize, &hdr),
            "bucket {idx}: crc mismatch"
        );
        assert!(
            pool.is_persisted(off as usize, hdr.object_size()),
            "bucket {idx}: object not actually persisted"
        );
        live += 1;
    });
    live
}
