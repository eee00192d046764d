//! The background verification and persisting process (paper §4.3.2).
//!
//! A single process walks the data pool from its head, object by object:
//!
//! * objects whose durability flag is already set (persisted by a GET
//!   handler in the meantime) are skipped;
//! * otherwise the value's CRC is computed and compared with the recorded
//!   CRC — a match means the client's one-sided RDMA write has fully
//!   landed, so the object is flushed to NVM and its durability flag set;
//! * a mismatch means the write is still in flight (or was torn by a lost
//!   client): the cursor *waits* on the object, bounded by the configured
//!   timeout, after which the object is marked invalid and the cursor
//!   moves on (the space is reclaimed by log cleaning).
//!
//! The head-of-line wait is the paper's "operates each object one by one";
//! objects behind a stuck head are still made durable on demand by the GET
//! handler (`ensure_durable_version`), and the durability flag lets this
//! process skip them later — exactly the interplay §4.3.2 describes.
//!
//! The cursor is epoch-guarded against log cleaning: when the cleaner swaps
//! pools it bumps `clean_epoch` and repoints the cursor; a step that
//! observes a stale epoch abandons its cursor update.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use efactory_obs::Subsystem;
use efactory_rnic::Fabric;
use efactory_sim as sim;

use crate::layout::{flags, ObjHeader};
use crate::repl::Mirror;
use crate::server::{MigrateSlot, ServerShared, VERIFY_STEP_COST};

/// Outcome of one verifier step (exposed for tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Nothing between the cursor and the log head.
    Idle,
    /// Skipped an object that was already durable or invalid.
    Skipped,
    /// Verified + persisted an object.
    Persisted,
    /// CRC mismatch, object still within its timeout — waiting.
    Waiting,
    /// CRC mismatch past the timeout — object invalidated.
    Invalidated,
}

/// Run the verifier until the server stops.
///
/// With `cfg.doorbell_batch > 1` the per-object flush fence is batched:
/// the CLWBs of each persisted object still issue per object (inside
/// `persist_object`, which is what makes the data durable in this model),
/// but the fence's base cost is charged once per batch — one drain covers
/// the whole chain of flushes, mirroring the doorbell-batched recv ring.
/// The fence is forced before the verifier sleeps, so no persisted-but-
/// unfenced object outlives an idle period.
pub fn run(shared: &ServerShared) {
    run_with_mirror(shared, None, None)
}

/// Run the verifier, optionally mirroring the log to a backup replica.
///
/// The verifier is the replication point: every object it advances past —
/// persisted, already durable, or invalidated — is pushed to the mirror,
/// which coalesces contiguous runs and ships them to the backup with one
/// doorbell-batched `rdma_write_imm` per run (see [`crate::repl`]). The
/// mirror is flushed before every idle sleep, so a quiescent primary never
/// sits on an unshipped tail.
pub fn run_with_mirror(
    shared: &ServerShared,
    fabric: Option<&Arc<Fabric>>,
    mut mirror: Option<Mirror>,
) {
    let batch = shared.cfg.doorbell_batch.max(1);
    let mut unfenced = 0usize;
    // Live-migration delta stream: attached mid-run through the
    // `migrate_out` slot (see [`MigrateSlot`]); ships the same hole-free
    // object stream as the replication mirror, aimed at the destination's
    // copy pool. The slot poll is a plain mutex with no simulated-time
    // cost, so runs that never migrate replay byte-identically.
    let mut delta: Option<Mirror> = None;
    while !shared.stopping() {
        poll_migrate_slot(shared, fabric, &mut delta);
        let fence = |unfenced: &mut usize| {
            if *unfenced > 0 {
                sim::work(shared.cost.flush_base_ns);
                *unfenced = 0;
            }
        };
        let (outcome, mirrored) = step_inner(shared, batch > 1);
        if let Some((off, size)) = mirrored {
            if let Some(m) = mirror.as_mut() {
                m.push(shared, off, size);
            }
            if let Some(d) = delta.as_mut() {
                d.push(shared, off, size);
            }
        }
        match outcome {
            StepOutcome::Idle | StepOutcome::Waiting => {
                fence(&mut unfenced);
                if let Some(m) = mirror.as_mut() {
                    m.flush(shared);
                }
                if let Some(d) = delta.as_mut() {
                    d.flush(shared);
                }
                sim::sleep(shared.cfg.verify_idle)
            }
            StepOutcome::Persisted if batch > 1 => {
                unfenced += 1;
                if unfenced >= batch {
                    fence(&mut unfenced);
                }
            }
            StepOutcome::Skipped | StepOutcome::Persisted | StepOutcome::Invalidated => {
                // `step` charged simulated work, which already yielded.
            }
        }
    }
}

/// Service the migration rendezvous slot: connect the delta mirror on
/// `Attach` (acking with the cursor at attach — the snapshot copy's upper
/// bound), flush and drop it on `Detach`.
fn poll_migrate_slot(
    shared: &ServerShared,
    fabric: Option<&Arc<Fabric>>,
    delta: &mut Option<Mirror>,
) {
    let mut slot = shared.migrate_out.lock().unwrap();
    match &*slot {
        MigrateSlot::Attach(target) => {
            let connected = fabric.and_then(|f| Mirror::connect(f, shared, target));
            *slot = match connected {
                Some(m) => {
                    *delta = Some(m);
                    MigrateSlot::Active {
                        cursor: shared.cursor.load(Ordering::Relaxed),
                    }
                }
                None => MigrateSlot::Failed,
            };
        }
        MigrateSlot::Detach => {
            drop(slot);
            if let Some(mut d) = delta.take() {
                d.flush(shared);
            }
            *shared.migrate_out.lock().unwrap() = MigrateSlot::Idle;
        }
        _ => {}
    }
}

/// Execute one verifier step. Public so tests can drive the verifier
/// deterministically without the surrounding loop. Always charges the
/// per-object fence (the unbatched behavior).
pub fn step(shared: &ServerShared) -> StepOutcome {
    step_inner(shared, false).0
}

/// One verifier step plus the mirror candidate: `(outcome, Some((off,
/// size)))` whenever the cursor advanced past an object. Every advanced
/// object is a candidate — including invalidated ones — so the mirrored
/// backup log is a hole-free prefix of the primary's (recovery scans stop
/// at the first hole, so a gap would truncate the backup's replay).
fn step_inner(shared: &ServerShared, defer_fence: bool) -> (StepOutcome, Option<(usize, usize)>) {
    let epoch = shared.clean_epoch.load(Ordering::Relaxed);
    let pool_idx = shared.cursor_pool.load(Ordering::Relaxed);
    let cur = shared.cursor.load(Ordering::Relaxed) as usize;
    let region = &shared.logs[pool_idx];
    if cur >= region.head() {
        return (StepOutcome::Idle, None);
    }

    let hdr = ObjHeader::read_from(&shared.pool, cur);
    let size = hdr.object_size();
    debug_assert!(size > 0 && region.contains(cur));

    let advance = |shared: &ServerShared| {
        // Only move the cursor if cleaning has not swapped pools under us.
        if shared.clean_epoch.load(Ordering::Relaxed) == epoch {
            shared.cursor.store((cur + size) as u64, Ordering::Relaxed);
        }
    };

    if hdr.has(flags::VALID) && hdr.has(flags::PENDING) {
        // In-doubt transactional version: its resolution (publish vs
        // abort) is a later word-0 flag change the mirror would miss once
        // the cursor advances past it. Wait — resolution is bounded by the
        // decide RPC or the presumed-abort sweep — so the backup only ever
        // receives resolved bytes.
        return (StepOutcome::Waiting, None);
    }

    if !hdr.has(flags::VALID) || hdr.has(flags::DURABLE) {
        sim::work(VERIFY_STEP_COST);
        advance(shared);
        return (StepOutcome::Skipped, Some((cur, size)));
    }

    // CRC over the value (tombstones have vlen == 0 and match trivially).
    // eFactory's own verifier uses the ISA-accelerated CRC and issues its
    // CLWBs asynchronously (they drain while the next object is checked),
    // so only the fence's base cost lands on this thread.
    let mut sp = shared
        .cfg
        .obs
        .tracer
        .span(Subsystem::Verifier, "crc_verify");
    sp.arg("off", cur as u64);
    sim::work(VERIFY_STEP_COST + shared.cost.crc_hw(hdr.vlen as usize));
    let matched = shared.crc_matches(cur, &hdr);
    drop(sp);
    if matched {
        let mut fl = shared.cfg.obs.tracer.span(Subsystem::Verifier, "flush");
        fl.arg("off", cur as u64);
        let lines = shared.persist_object(cur, &hdr);
        fl.arg("lines", lines as u64);
        if !defer_fence {
            sim::work(shared.cost.flush_base_ns);
        }
        drop(fl);
        shared.stats.bg_verified.inc();
        advance(shared);
        return (StepOutcome::Persisted, Some((cur, size)));
    }

    // Incomplete: wait for the write to land, bounded by the timeout.
    if sim::now().saturating_sub(hdr.alloc_time) > shared.cfg.verify_timeout {
        crate::layout::update_flags(&shared.pool, cur, 0, flags::VALID);
        let lines = shared.pool.flush(cur, 8);
        shared.pool.drain();
        sim::work(shared.cost.flush(lines * efactory_pmem::LINE));
        shared.stats.bg_timeouts.inc();
        shared
            .cfg
            .obs
            .tracer
            .event_args(Subsystem::Verifier, "invalidate", &[("off", cur as u64)]);
        advance(shared);
        return (StepOutcome::Invalidated, Some((cur, size)));
    }
    (StepOutcome::Waiting, None)
}
