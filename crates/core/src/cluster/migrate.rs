//! Live shard migration: move a shard's log + hash table to another node
//! while client traffic keeps flowing.
//!
//! # Protocol (the migration state machine)
//!
//! 1. **Start** — `MigrateStart{shard, to}` is committed through the
//!    metadata log (rejected if a migration is already in flight, the
//!    destination is down, or it already owns the shard). Ownership does
//!    NOT change yet; the source keeps serving.
//! 2. **Attach** — the driver parks a delta-stream target in the source
//!    server's [`MigrateSlot`]; the source's *verifier* (the replication
//!    point, exactly as in [`crate::repl`]) connects a
//!    [`Mirror`](crate::repl::Mirror) to the destination pool
//!    and acks with its cursor — the **attach cursor**. From here, every
//!    object the verifier advances past at or above that cursor is
//!    shipped to the destination as it becomes durable. Traffic flows.
//! 3. **Snapshot copy** — the driver bulk-copies the stable prefix: the
//!    hash-table region and the log below the attach cursor, in chunks,
//!    with one-sided reads from the source and writes into the
//!    destination pool. Log bytes below the cursor are stable (verified
//!    objects never change their payload), so this copy races nothing;
//!    the churning hash table is copied best-effort and reconciled in
//!    step 5. Traffic still flows.
//! 4. **Seal + drain** — the source is sealed: every client data op is
//!    answered `WrongEpoch` (the retarget signal); `TxnDecide` stays
//!    admissible so 2PC transactions prepared before the seal still
//!    resolve (PR 7's atomicity composes unchanged). The driver waits for
//!    the verifier to drain to the log head — in-flight one-sided value
//!    writes either land (verified + delta-shipped) or time out
//!    (invalidated + delta-shipped); in-doubt transactions resolve by
//!    decide or presumed-abort. Bounded by `verify_timeout` +
//!    `txn_abort_timeout`. The delta stream is then flushed and detached;
//!    the source pool is now frozen.
//! 5. **Fixup + verify** — one chunked compare-and-rewrite pass over the
//!    whole pool catches everything the live copy could not pin down
//!    (hash-table churn, flag-word updates below the cursor, delta runs
//!    lost to transient faults). A second pass asserts **zero**
//!    differences: the destination is byte-identical to the frozen
//!    source — exactly what a stop-the-world copy would have produced.
//! 6. **Adopt** — ordinary [`crate::recovery`] runs over the copied pool
//!    (the same code path a rebooted owner would run) and the destination
//!    server starts.
//! 7. **Decommission + commit** — the source's hash-table entries are
//!    poisoned (`new_valid`), pushing any straggler's pure one-sided read
//!    onto the RPC fallback where the seal answers `WrongEpoch`, and a
//!    `CleanStart` event pins polling clients off the pure path entirely.
//!    Then `MigrateCommit` flips ownership in the metadata service with
//!    an **epoch bump**, and the destination is installed in the seat
//!    table, which shuts the sealed source down. A client still holding
//!    a QP to the source then gets a transport error and redials through
//!    the placement refresh.
//!
//! Aborting at any step before 7 leaves the source the one owner: the
//! driver unseals it, detaches the delta stream, and commits
//! `MigrateAbort`. If the abort proposal itself finds no metadata
//! majority, the driver parks it in the control plane and
//! [`Store::reconcile`] re-proposes it once a majority is reachable —
//! otherwise the slot would stay occupied forever, since with both
//! endpoints alive the death sweep never auto-aborts. A crash of either
//! endpoint mid-migration is detected by the metadata service's death
//! sweep, which auto-aborts the migration; the invariant "exactly one
//! owner per shard" holds at every instant because ownership only ever
//! changes inside `MigrateCommit`.

use std::sync::Arc;

use efactory_pmem::PmemPool;
use efactory_rnic::{ClientQp, Node, QpError, RemoteMr};
use efactory_sim as sim;
use sim::Nanos;

use super::meta::{MetaClient, MetaCmd, ProposeOutcome};
use super::Plane;
use crate::protocol::Event;
use crate::recovery::{self, RecoveryReport};
use crate::repl::ReplTarget;
use crate::server::{CleanPhase, MigrateSlot, ServerShared};
use crate::store::Store;

/// Snapshot and fixup copy chunk (bytes).
const COPY_CHUNK: usize = 64 * 1024;

/// Why a migration did not commit. In every case the source remains the
/// owner (the metadata service never saw, or refused, the commit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrateError {
    /// The metadata service refused `MigrateStart` (migration already in
    /// flight, destination down, or destination already owns the shard).
    Rejected,
    /// No metadata leader/majority reachable within the deadline.
    MetaUnavailable,
    /// The source verifier could not connect the delta stream to the
    /// destination (source dead or link down).
    AttachFailed,
    /// The snapshot/fixup copy failed (an endpoint died or a partition
    /// outlasted the retry budget).
    CopyFailed,
    /// The sealed source did not drain within the bound (its verifier
    /// died — e.g. the source was power-failed mid-migration).
    DrainTimeout,
    /// The copy verified, but the metadata service refused the commit —
    /// the migration was auto-aborted under us (endpoint declared dead).
    CommitRefused,
    /// The source's log cleaner kept a pass in flight past the wait
    /// bound, so the delta stream was never attached. Cleaning rewrites
    /// the log (and ultimately swaps pools) under the mirror's feet;
    /// migration serializes behind it rather than racing it.
    CleanTimeout,
}

/// What a committed migration did.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// The migrated shard.
    pub shard: usize,
    /// Previous owner.
    pub from: usize,
    /// New owner.
    pub to: usize,
    /// Placement epoch after the commit.
    pub epoch: u64,
    /// Verifier cursor at delta attach (exclusive upper bound of the
    /// stable snapshot prefix).
    pub attach_cursor: u64,
    /// Bytes bulk-copied while traffic flowed.
    pub snapshot_bytes: u64,
    /// Objects shipped by the delta stream.
    pub delta_objects: u64,
    /// Bytes rewritten by the post-drain fixup pass.
    pub fixup_bytes: u64,
    /// Differences found by the final verify pass — 0 by construction;
    /// the driver fails the migration otherwise.
    pub verify_diff_bytes: u64,
    /// Virtual time spent sealed (the client-visible unavailability
    /// window of this shard).
    pub sealed_ns: Nanos,
    /// Whole-migration virtual time (start committed → commit).
    pub total_ns: Nanos,
    /// What recovery over the copied pool found (expected: all keys
    /// intact — the source was drained before the copy froze).
    pub recovery: RecoveryReport,
}

/// Bounded one-sided op with timeout retries (transient partitions).
fn read_retry(qp: &ClientQp, mr: &RemoteMr, off: usize, len: usize) -> Result<Vec<u8>, QpError> {
    let mut backoff = sim::micros(2);
    for _ in 0..4 {
        match qp.rdma_read(mr, off, len) {
            Ok(b) => return Ok(b),
            Err(QpError::Timeout) => {
                sim::sleep(backoff);
                backoff *= 2;
            }
            Err(e) => return Err(e),
        }
    }
    Err(QpError::Timeout)
}

fn write_retry(qp: &ClientQp, mr: &RemoteMr, off: usize, data: &[u8]) -> Result<(), QpError> {
    let mut backoff = sim::micros(2);
    for _ in 0..4 {
        match qp.rdma_write(mr, off, data.to_vec()) {
            Ok(()) => return Ok(()),
            Err(QpError::Timeout) => {
                sim::sleep(backoff);
                backoff *= 2;
            }
            Err(e) => return Err(e),
        }
    }
    Err(QpError::Timeout)
}

/// Everything the abort path needs to unwind.
struct Unwind<'a> {
    mc: &'a mut MetaClient,
    shard: usize,
    to: usize,
    src: &'a Arc<ServerShared>,
    sealed: bool,
    attached: bool,
}

impl Unwind<'_> {
    fn abort(self, plane: &Plane, err: MigrateError) -> MigrateError {
        if self.attached {
            // Best effort: if the verifier is alive it flushes + drops the
            // delta mirror; if it died with the node, the slot is inert.
            *self.src.migrate_out.lock().unwrap() = MigrateSlot::Detach;
        }
        if self.sealed {
            self.src.unseal();
        }
        plane.clear_staged();
        let deadline = sim::now() + sim::millis(2);
        let outcome = self.mc.propose(
            &MetaCmd::MigrateAbort {
                shard: self.shard as u32,
            },
            deadline,
        );
        if matches!(outcome, ProposeOutcome::Unavailable) {
            // The abort may never have reached the log. Both endpoints
            // are (or may be) alive, so the death sweep will never free
            // the slot for us — park the abort for `Store::reconcile`
            // to re-propose once a metadata majority is reachable.
            plane.note_unacked_abort(self.shard, self.to);
        }
        plane.stats.migrations_aborted.inc();
        err
    }
}

/// The commit proposal came back `Unavailable` — ambiguous: the command
/// may have replicated before the ack was lost (or the leader died and
/// the command died with it). Resolve against the authoritative log: an
/// owner flip to `to` means it committed; a slot that is no longer ours
/// means it provably did not and can no longer (the death sweep's
/// auto-abort won the race); a slot still holding this exact migration
/// is resolved by **re-proposing the commit** — `MigrateCommit` is
/// idempotent against its own slot, so the first application flips
/// ownership and a resurfacing original finds the slot cleared and
/// no-ops. `None` means the metadata service stayed unreachable for the
/// whole bound and the outcome is still unknown.
fn resolve_commit(mc: &mut MetaClient, shard: usize, to: usize) -> Option<Result<u64, ()>> {
    let deadline = sim::now() + sim::millis(3);
    while sim::now() < deadline {
        if let Some(state) = mc.get_map(sim::now() + sim::millis(1)) {
            if state.placement.node_of_shard(shard) == to {
                return Some(Ok(state.placement.epoch));
            }
            if state.migrating != Some((shard as u32, to as u32)) {
                return Some(Err(()));
            }
            if let ProposeOutcome::Committed(state) = mc.propose(
                &MetaCmd::MigrateCommit {
                    shard: shard as u32,
                },
                sim::now() + sim::millis(1),
            ) {
                return Some(if state.placement.node_of_shard(shard) == to {
                    Ok(state.placement.epoch)
                } else {
                    Err(())
                });
            }
        }
        sim::sleep(sim::micros(20));
    }
    None
}

impl Store {
    /// Live-migrate `shard` to data node `to`. Runs the full protocol in
    /// the calling (simulated) process; client traffic may keep flowing
    /// throughout. On success the destination serves the shard and every
    /// byte of its pool provably matches what a stop-the-world copy of
    /// the drained source would hold.
    pub fn migrate(&self, shard: usize, to: usize) -> Result<MigrationReport, MigrateError> {
        let t_begin = sim::now();
        let plane = self.plane();
        let layout = plane.layout;
        let seat = self.seat(shard);
        let from = seat.owner;
        let src = Arc::clone(seat.server.shared());
        let src_node = src.node.clone();
        let src_mr = seat.server.desc().mr;

        // The driver borrows the destination agent's fabric identity for
        // the control RPCs and the copy verbs.
        let local = self.agent_node(to).clone();
        let mut mc = MetaClient::new(self.fabric(), &local, self.meta_nodes());

        // Step 1: replicate the intent.
        match mc.propose(
            &MetaCmd::MigrateStart {
                shard: shard as u32,
                to: to as u32,
            },
            sim::now() + sim::millis(2),
        ) {
            // `apply` is total: a conflicting entry ahead of ours in the
            // log can no-op our command even though the proposal itself
            // "committed". Trust the returned state, not the status.
            ProposeOutcome::Committed(state)
                if state.migrating == Some((shard as u32, to as u32)) => {}
            ProposeOutcome::Committed(_) => return Err(MigrateError::Rejected),
            ProposeOutcome::Rejected => {
                // A driver that died after its start committed — or our
                // own start whose ack was lost and which a retry now
                // collides with — leaves the slot occupied. If the
                // occupied slot IS this exact migration, adopt it
                // instead of failing.
                let ours = mc
                    .get_map(sim::now() + sim::millis(1))
                    .is_some_and(|s| s.migrating == Some((shard as u32, to as u32)));
                if !ours {
                    return Err(MigrateError::Rejected);
                }
            }
            ProposeOutcome::Unavailable => return Err(MigrateError::MetaUnavailable),
        }
        // The slot is (again) ours: any abort a previous driver failed to
        // deliver is obsolete, and re-proposing it would kill this run.
        plane.clear_pending_abort();
        self.stats().migrations_started.inc();

        // Destination scaffolding: fresh pool, a listener so QPs (the
        // delta mirror's and the driver's) can connect, and a
        // registration covering the whole pool. Offsets line up 1:1 with
        // the source — both pools share one layout.
        let dest_node: Node = self.seat_node(to, shard).clone();
        let dest_pool = Arc::new(PmemPool::new(layout.total_len()));
        let _dest_listener = dest_node.listen_with(self.fabric(), false, 0);
        let dest_mr = dest_node.register_mr(&dest_pool, 0, layout.total_len());
        // Park the pool in the control plane: it is the destination
        // machine's NVM and must outlive this driver, whose borrowed
        // endpoint may die with the destination mid-commit. See
        // `Store::reconcile`.
        plane.stage_pool(shard, to, Arc::clone(&dest_pool));

        let mut unwind = Unwind {
            mc: &mut mc,
            shard,
            to,
            src: &src,
            sealed: false,
            attached: false,
        };

        // Step 2: attach the delta stream through the verifier — but only
        // once no cleaning pass is in flight. The cleaner relocates
        // objects and swaps pools, which would invalidate the snapshot
        // cursor and the 1:1 offset mapping the delta mirror relies on.
        // Its run() gate refuses to start a pass while `migrate_out` is
        // non-Idle, and a pass claims its phase without yielding, so after
        // this loop observes `Normal` the Attach store below (no yields in
        // between) parks the slot before any new pass can begin: exactly
        // one side wins the race.
        let clean_deadline = sim::now() + sim::millis(100);
        loop {
            if src.phase() == CleanPhase::Normal {
                break;
            }
            if sim::now() >= clean_deadline {
                return Err(unwind.abort(plane, MigrateError::CleanTimeout));
            }
            sim::sleep(sim::micros(50));
        }

        let delta_objs_before = self.migrate_repl_stats().mirror_objects.get();
        *src.migrate_out.lock().unwrap() = MigrateSlot::Attach(ReplTarget {
            backup: dest_node.clone(),
            mr: dest_mr,
            stats: Arc::clone(self.migrate_repl_stats()),
            batch: plane.server.doorbell_batch.max(1),
        });
        unwind.attached = true;
        let attach_deadline = sim::now() + sim::millis(2);
        let attach_cursor = loop {
            // Scope the guard: sleeping while holding the slot lock would
            // wedge the verifier, which takes it every loop iteration.
            let state = match *src.migrate_out.lock().unwrap() {
                MigrateSlot::Active { cursor } => Some(Ok(cursor)),
                MigrateSlot::Failed => Some(Err(())),
                _ => None,
            };
            match state {
                Some(Ok(cursor)) => break cursor,
                Some(Err(())) => {
                    unwind.attached = false;
                    return Err(unwind.abort(plane, MigrateError::AttachFailed));
                }
                None if sim::now() >= attach_deadline => {
                    return Err(unwind.abort(plane, MigrateError::AttachFailed));
                }
                None => sim::sleep(sim::micros(2)),
            }
        };

        // Step 3: snapshot-copy the stable prefix while traffic flows.
        // [0, log base) covers the hash table (+ any metadata);
        // [log base, attach cursor) is the settled log prefix. The log at
        // or above the cursor is the delta stream's job — copying it here
        // would race the delta writes.
        let src_qp = match self.fabric().connect(&local, &src_node) {
            Ok(qp) => qp,
            Err(_) => return Err(unwind.abort(plane, MigrateError::CopyFailed)),
        };
        let dest_qp = match self.fabric().connect(&local, &dest_node) {
            Ok(qp) => qp,
            Err(_) => return Err(unwind.abort(plane, MigrateError::CopyFailed)),
        };
        let mut snapshot_bytes = 0u64;
        let log_base = layout.regions()[0].base();
        let prefix_end = (attach_cursor as usize).max(log_base);
        for (lo, hi) in [(0usize, log_base), (log_base, prefix_end)] {
            let mut off = lo;
            while off < hi {
                let len = COPY_CHUNK.min(hi - off);
                let chunk = match read_retry(&src_qp, &src_mr, off, len) {
                    Ok(c) => c,
                    Err(_) => return Err(unwind.abort(plane, MigrateError::CopyFailed)),
                };
                if write_retry(&dest_qp, &dest_mr, off, &chunk).is_err() {
                    return Err(unwind.abort(plane, MigrateError::CopyFailed));
                }
                snapshot_bytes += len as u64;
                self.stats().snapshot_bytes.add(len as u64);
                self.stats().snapshot_chunks.inc();
                off += len;
            }
        }

        // Step 4: seal, then drain the verifier to the log head.
        src.seal();
        unwind.sealed = true;
        let t_sealed = sim::now();
        let drain_deadline = sim::now()
            + plane.server.verify_timeout
            + plane.server.txn_abort_timeout
            + sim::millis(2);
        loop {
            let active = src.active.load(std::sync::atomic::Ordering::Relaxed);
            let head = src.logs[active].head() as u64;
            if src.cursor.load(std::sync::atomic::Ordering::Relaxed) >= head {
                break;
            }
            if sim::now() >= drain_deadline || src.node.is_crashed() {
                return Err(unwind.abort(plane, MigrateError::DrainTimeout));
            }
            sim::sleep(sim::micros(5));
        }
        self.stats().drain_waits.inc();

        // Flush + detach the delta stream (the verifier services the
        // slot; Idle means the flush happened).
        *src.migrate_out.lock().unwrap() = MigrateSlot::Detach;
        let detach_deadline = sim::now() + sim::millis(2);
        loop {
            if matches!(*src.migrate_out.lock().unwrap(), MigrateSlot::Idle) {
                unwind.attached = false;
                break;
            }
            if sim::now() >= detach_deadline || src.node.is_crashed() {
                return Err(unwind.abort(plane, MigrateError::DrainTimeout));
            }
            sim::sleep(sim::micros(2));
        }
        let delta_objects = self.migrate_repl_stats().mirror_objects.get() - delta_objs_before;

        // Step 5: fixup + verify against the frozen source.
        let total = layout.total_len();
        let mut fixup_bytes = 0u64;
        let mut verify_diff_bytes = 0u64;
        for pass in 0..2 {
            let mut off = 0usize;
            while off < total {
                let len = COPY_CHUNK.min(total - off);
                let want = match read_retry(&src_qp, &src_mr, off, len) {
                    Ok(c) => c,
                    Err(_) => return Err(unwind.abort(plane, MigrateError::CopyFailed)),
                };
                let mut have = vec![0u8; len];
                dest_pool.read(off, &mut have);
                if want != have {
                    if pass == 0 {
                        if write_retry(&dest_qp, &dest_mr, off, &want).is_err() {
                            return Err(unwind.abort(plane, MigrateError::CopyFailed));
                        }
                        fixup_bytes += len as u64;
                        self.stats().fixup_bytes.add(len as u64);
                    } else {
                        let diff = want.iter().zip(&have).filter(|(a, b)| a != b).count() as u64;
                        verify_diff_bytes += diff;
                        self.stats().verify_diff_bytes.add(diff);
                    }
                }
                off += len;
            }
        }
        if verify_diff_bytes != 0 {
            // The copy is not byte-identical to the frozen source: never
            // flip ownership onto it.
            return Err(unwind.abort(plane, MigrateError::CopyFailed));
        }

        // Step 6: adopt — ordinary recovery over the copied pool, then
        // start serving (replaces the driver's scaffolding listener).
        let (dest_server, recovery_report) = recovery::recover(
            self.fabric(),
            &dest_node,
            Arc::clone(&dest_pool),
            layout,
            plane.seat_cfg(to, shard),
        );
        dest_server.start(self.fabric());

        // Step 7a: decommission the source's read paths *before* the
        // flip, so no straggler can be served stale bytes afterwards:
        // poison every occupied hash entry (pure probes fall back to RPC,
        // where the seal answers `WrongEpoch`) and pin polling clients
        // off the pure path entirely.
        src.ht.for_each_occupied(&src.pool, |idx, e| {
            src.ht.set_ctl(&src.pool, idx, e.ctl.with_new_valid(true));
        });
        if let Some(n) = src.notifier.lock().unwrap().as_ref() {
            let _ = n.notify_all(&Event::CleanStart.encode());
        }

        // Park the recovered server beside its pool: if the commit's
        // outcome is lost below, reconciliation can still promote (or
        // wind down) a complete destination.
        plane.stage_server(dest_server);

        // Step 7b: the commit point — ownership flips here and only here.
        let outcome = unwind.mc.propose(
            &MetaCmd::MigrateCommit {
                shard: shard as u32,
            },
            sim::now() + sim::millis(2),
        );
        let resolved = match outcome {
            // Believe the flip only if the returned state shows it (apply
            // is total, so a conflicting entry ahead of ours can no-op
            // the command under a "committed" status).
            ProposeOutcome::Committed(state) if state.placement.node_of_shard(shard) == to => {
                Some(Ok(state.placement.epoch))
            }
            // Everything else is ambiguous, not refused: `Unavailable`
            // may have replicated before the ack was lost, and `Rejected`
            // may be our own commit landing in a previous leader's log
            // and the retry reaching its successor as a duplicate. Settle
            // against the authoritative log.
            _ => resolve_commit(unwind.mc, shard, to),
        };
        let epoch = match resolved {
            Some(Ok(epoch)) => epoch,
            Some(Err(())) => {
                // Provably not committed and no longer committable.
                return Err(unwind.abort(plane, MigrateError::CommitRefused));
            }
            None => {
                // Outcome unknown within the bound: consistency over
                // availability. Serving the source could double-own the
                // shard if the commit did land, so it stays sealed and
                // the destination stays staged; `Store::reconcile`
                // settles both once a metadata majority is reachable
                // again.
                return Err(MigrateError::MetaUnavailable);
            }
        };
        // A concurrent reconciliation (a node restart racing this commit)
        // may have settled the staging already; otherwise install the
        // destination ourselves.
        if let Some(dest_server) = plane.take_staged_server() {
            self.install_seat(shard, to, dest_server);
        }
        self.stats().migrations_committed.inc();

        Ok(MigrationReport {
            shard,
            from,
            to,
            epoch,
            attach_cursor,
            snapshot_bytes,
            delta_objects,
            fixup_bytes,
            verify_diff_bytes,
            sealed_ns: sim::now() - t_sealed,
            total_ns: sim::now() - t_begin,
            recovery: recovery_report,
        })
    }
}
