//! Live shard migration: move a shard's log + hash table to another node
//! while client traffic keeps flowing.
//!
//! # Protocol (the migration state machine)
//!
//! 1. **Start** — `MigrateStart{shard, to}` is committed through the
//!    metadata service (rejected if a migration is already in flight, the
//!    destination is down, or it already owns the shard). Ownership does
//!    NOT change yet; the source keeps serving.
//! 2. **Live copy** — the driver bulk-copies the source's hash table and
//!    its log up to the active pool's head, in chunks, with one-sided
//!    reads from the source and writes into the destination pool, whose
//!    offsets line up 1:1 with the source's. Traffic flows, and nothing
//!    pins the copied bytes: client writes, the verifier's flag updates
//!    and a cleaning pass keep changing them. The copy only moves most of
//!    the pool before the seal; step 5 repairs the rest.
//! 3. **Seal** — the driver waits until no cleaning pass is in flight,
//!    then seals the source without yielding in between: every client
//!    data op is answered `WrongEpoch` (the retarget signal) and the
//!    cleaner starts no new pass; `TxnDecide` stays admissible so 2PC
//!    transactions prepared before the seal still resolve atomically.
//! 4. **Drain** — the driver waits for the verifier to drain to the log
//!    head: in-flight one-sided value writes either land (verified) or
//!    time out (invalidated); in-doubt transactions resolve by decide or
//!    presumed-abort. Bounded by `verify_timeout` + `txn_abort_timeout`.
//!    The source pool is now frozen.
//! 5. **Fixup + verify** — one chunked compare-and-rewrite pass over the
//!    whole pool catches everything the live copy could not pin down
//!    (bytes changed after the copy read them, the log above the copy's
//!    head, the inactive cleaning pool). A second pass asserts **zero**
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
//! driver unseals it and commits `MigrateAbort`. If the abort proposal
//! itself finds no metadata majority, the driver parks it in the control
//! plane and [`Store::reconcile`] re-proposes it once a majority is
//! reachable — otherwise the slot would stay occupied forever, since with
//! both endpoints alive the death sweep never auto-aborts. A crash of
//! either endpoint mid-migration is detected by the metadata service's
//! death sweep, which auto-aborts the migration; the invariant "exactly
//! one owner per shard" holds at every instant because ownership only
//! ever changes inside `MigrateCommit`.

use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use efactory_pmem::PmemPool;
use efactory_rnic::{ClientQp, Node, QpError, RemoteMr};
use efactory_sim as sim;
use sim::Nanos;

use super::meta::{MetaClient, MetaCmd, ProposeOutcome};
use super::{ClusterStats, Plane};
use crate::recovery::{self, RecoveryReport};
use crate::server::{CleanPhase, ServerShared};
use crate::store::Store;

/// Copy, fixup and verify chunk (bytes).
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
    /// The copy, fixup or verify pass failed (an endpoint died or a
    /// partition outlasted the retry budget).
    CopyFailed,
    /// The sealed source did not drain within the bound (its verifier
    /// died — e.g. the source was power-failed mid-migration).
    DrainTimeout,
    /// The copy verified, but the metadata service refused the commit —
    /// the migration was auto-aborted under us (endpoint declared dead).
    CommitRefused,
    /// The source's log cleaner kept a pass in flight past the wait
    /// bound, so the source was never sealed. A pass keeps rewriting the
    /// log (and ultimately swaps pools) on a sealed shard, so the seal
    /// waits for it rather than freezing a half-cleaned pool.
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
    /// Bytes bulk-copied while traffic flowed.
    pub snapshot_bytes: u64,
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

/// A one-sided verb with timeout retries (transient partitions): up to
/// four attempts, each timeout slept out with a backoff doubling from 2 µs.
fn retry<T>(mut verb: impl FnMut() -> Result<T, QpError>) -> Result<T, QpError> {
    let mut backoff = sim::micros(2);
    for _ in 0..4 {
        match verb() {
            Err(QpError::Timeout) => {
                sim::sleep(backoff);
                backoff *= 2;
            }
            done => return done,
        }
    }
    Err(QpError::Timeout)
}

/// What a chunk pass does with each chunk it reads from the source.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// Write every chunk to the destination (the live copy).
    Copy,
    /// Rewrite the chunks that differ from the destination's.
    Fixup,
    /// Count the differing bytes; write nothing.
    Verify,
}

/// The driver's copy path: one-sided reads from the source pool, writes
/// into the destination pool, and local reads of the destination to
/// compare against.
struct Copier<'a> {
    src_qp: ClientQp,
    src_mr: RemoteMr,
    dest_qp: ClientQp,
    dest_mr: RemoteMr,
    dest_pool: &'a PmemPool,
    stats: &'a ClusterStats,
}

impl Copier<'_> {
    /// Run `pass` over `range` of the pool, one [`COPY_CHUNK`] at a time.
    /// Returns the bytes the pass copied, rewrote, or found differing.
    fn pass(&self, pass: Pass, range: Range<usize>) -> Result<u64, QpError> {
        let end = range.end;
        let mut total = 0u64;
        for off in range.step_by(COPY_CHUNK) {
            let len = COPY_CHUNK.min(end - off);
            let want = retry(|| self.src_qp.rdma_read(&self.src_mr, off, len))?;
            let bytes = match pass {
                Pass::Copy => len,
                Pass::Fixup | Pass::Verify => {
                    let mut have = vec![0u8; len];
                    self.dest_pool.read(off, &mut have);
                    if want == have {
                        0
                    } else if pass == Pass::Fixup {
                        len
                    } else {
                        want.iter().zip(&have).filter(|(a, b)| a != b).count()
                    }
                }
            } as u64;
            if pass != Pass::Verify && bytes > 0 {
                retry(|| self.dest_qp.rdma_write(&self.dest_mr, off, want.clone()))?;
            }
            match pass {
                Pass::Copy => {
                    self.stats.snapshot_bytes.add(bytes);
                    self.stats.snapshot_chunks.inc();
                }
                Pass::Fixup => self.stats.fixup_bytes.add(bytes),
                Pass::Verify => self.stats.verify_diff_bytes.add(bytes),
            }
            total += bytes;
        }
        Ok(total)
    }
}

/// Everything the abort path needs to unwind.
struct Unwind<'a> {
    mc: &'a mut MetaClient,
    shard: usize,
    to: usize,
    src: &'a Arc<ServerShared>,
    sealed: bool,
}

impl Unwind<'_> {
    fn abort(&mut self, plane: &Plane, err: MigrateError) -> MigrateError {
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
            // The abort may never have reached a majority. Both endpoints
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
/// the command died with it). Resolve against the authoritative map: an
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
            // `apply` is total: a conflicting command ahead of ours can
            // no-op it even though the proposal itself "committed". Trust
            // the returned state, not the status.
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
        // A backup of the shard on the destination is out of sync (the
        // metadata service refuses a start onto an in-sync one), and its
        // seat is about to take the copy: retire it, so no agent ever
        // promotes it.
        if let Some(b) = self.backup(shard).filter(|b| b.data_node() == to) {
            b.claim();
        }
        self.stats().migrations_started.inc();

        // Destination scaffolding: fresh pool, a listener so the driver's
        // QP can connect, and a registration covering the whole pool.
        // Offsets line up 1:1 with the source — both pools share one
        // layout. Its pmem counters and tracer are the destination seat's,
        // so the new owner's pool work shows under that seat.
        let dest_node: Node = self.seat_node(to, shard).clone();
        let dest_cfg = plane.seat_cfg(to, shard);
        let dest_pool = Arc::new(PmemPool::new(layout.total_len()));
        dest_pool
            .stats()
            .register_prefixed(&dest_cfg.obs.registry, &dest_cfg.counter_prefix);
        dest_pool.set_tracer(dest_cfg.obs.tracer.clone());
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
        };

        let (src_qp, dest_qp) = self
            .fabric()
            .connect(&local, &src_node)
            .and_then(|src_qp| Ok((src_qp, self.fabric().connect(&local, &dest_node)?)))
            .map_err(|_| unwind.abort(plane, MigrateError::CopyFailed))?;
        let copier = Copier {
            src_qp,
            src_mr,
            dest_qp,
            dest_mr,
            dest_pool: &dest_pool,
            stats: self.stats(),
        };

        // Step 2: copy the pool live, up to the active pool's log head: the
        // hash table, then the log from its base.
        let log_base = layout.regions()[0].base();
        let head = src.logs[src.active.load(Ordering::Relaxed)].head();
        let snapshot_bytes = copier
            .pass(Pass::Copy, 0..log_base)
            .and_then(|table| Ok(table + copier.pass(Pass::Copy, log_base..head)?))
            .map_err(|_| unwind.abort(plane, MigrateError::CopyFailed))?;

        // Step 3: seal once no cleaning pass is in flight. A pass keeps
        // relocating objects and swapping pools on a sealed shard, so the
        // source would never freeze under it. The cleaner's run() gate
        // refuses to start a pass on a sealed shard, and a pass claims its
        // phase without yielding, so after this loop observes `Normal` the
        // seal below (no yields in between) lands before any new pass can
        // begin: exactly one side wins the race.
        let clean_deadline = sim::now() + sim::millis(100);
        while src.phase() != CleanPhase::Normal {
            if sim::now() >= clean_deadline {
                return Err(unwind.abort(plane, MigrateError::CleanTimeout));
            }
            sim::sleep(sim::micros(50));
        }
        src.seal();
        unwind.sealed = true;
        let t_sealed = sim::now();

        // Step 4: drain the verifier to the log head.
        let drain_deadline = sim::now()
            + plane.server.verify_timeout
            + plane.server.txn_abort_timeout
            + sim::millis(2);
        loop {
            let active = src.active.load(Ordering::Relaxed);
            let head = src.logs[active].head() as u64;
            if src.cursor.load(Ordering::Relaxed) >= head {
                break;
            }
            if sim::now() >= drain_deadline || src.node.is_crashed() {
                return Err(unwind.abort(plane, MigrateError::DrainTimeout));
            }
            sim::sleep(sim::micros(5));
        }
        self.stats().drain_waits.inc();

        // Step 5: fixup + verify the whole pool against the frozen source.
        let total = layout.total_len();
        let (fixup_bytes, verify_diff_bytes) = copier
            .pass(Pass::Fixup, 0..total)
            .and_then(|fixup| Ok((fixup, copier.pass(Pass::Verify, 0..total)?)))
            .map_err(|_| unwind.abort(plane, MigrateError::CopyFailed))?;
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
            dest_cfg,
        );
        dest_server.start(self.fabric());

        // Step 7a: decommission the source's read paths *before* the
        // flip, so no straggler can be served stale bytes afterwards: pure
        // probes fall back to RPC, where the seal answers `WrongEpoch`.
        src.retire_reads();

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
            // is total, so a conflicting command ahead of ours can no-op
            // the command under a "committed" status).
            ProposeOutcome::Committed(state) if state.placement.node_of_shard(shard) == to => {
                Some(Ok(state.placement.epoch))
            }
            // Everything else is ambiguous, not refused: `Unavailable`
            // may have replicated before the ack was lost, and `Rejected`
            // may be our own commit landing in a previous leader's state
            // and the retry reaching its successor as a duplicate. Settle
            // against the authoritative map.
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
            snapshot_bytes,
            fixup_bytes,
            verify_diff_bytes,
            sealed_ns: sim::now() - t_sealed,
            total_ns: sim::now() - t_begin,
            recovery: recovery_report,
        })
    }
}
