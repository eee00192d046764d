//! Live shard migration: move a shard's log + hash table to another node
//! while client traffic keeps flowing.
//!
//! # Protocol (the migration state machine)
//!
//! 1. **Start** — the driver records the migration in the control plane
//!    (refused while another one is recorded), then commits
//!    `MigrateStart{shard, to}` through the metadata service (rejected if
//!    a migration is already in flight, the destination is down, or it
//!    already owns the shard). Ownership does NOT change yet; the source
//!    keeps serving.
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
//!    The verified copy is then persisted on the destination.
//! 6. **Decommission + commit** — the source's hash-table entries are
//!    poisoned (`new_valid`), pushing any straggler's pure one-sided read
//!    onto the RPC fallback where the seal answers `WrongEpoch`, and a
//!    `CleanStart` event pins polling clients off the pure path entirely.
//!    Then the record wants the commit, and `MigrateCommit` flips
//!    ownership in the metadata service with an **epoch bump**.
//! 7. **Adopt** — once a committed placement names the destination,
//!    ordinary [`crate::recovery`] runs over the copied pool (the same
//!    code path a rebooted owner would run), and the destination server
//!    starts and is installed in the seat table, which shuts the sealed
//!    source down. A client still holding a QP to the source then gets a
//!    transport error and redials through the placement refresh.
//!
//! # Settling
//!
//! A migration settles the way a promotion does: from committed state.
//! The driver's record in the control plane holds the shard, the
//! destination, the start's placement epoch, the destination pool and
//! what the driver wants — to keep copying, to commit, or to abort. The
//! settle step
//! (`Plane::settle`) runs on the driver's own proposal replies, on every
//! node agent's heartbeat reply, and on the state a node restart reads.
//! It adopts the copy once a placement newer than the start names the
//! destination, re-proposes the commit or abort while the slot still
//! holds the migration, and drops the record once the slot has moved on,
//! unsealing the source if the slot is empty. So a commit or abort whose
//! ack was lost, or that found no metadata majority, is finished by
//! whoever next reads committed state, and a start whose ack was lost
//! ends in an abort.
//!
//! Aborting at any step before 6 leaves the source the one owner: the
//! driver unseals it and wants the abort. A crash of either endpoint
//! mid-migration is detected by the metadata service's death sweep, which
//! auto-aborts the migration; the invariant "exactly one owner per shard"
//! holds at every instant because ownership only ever changes inside
//! `MigrateCommit`. After the commit is proposed the driver never unseals
//! the source itself: if no committed state shows the outcome within its
//! bound, the source stays sealed until the settle step learns it.

use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use efactory_pmem::PmemPool;
use efactory_rnic::{ClientQp, Node, QpError, RemoteMr};
use efactory_sim as sim;
use sim::Nanos;

use super::meta::{MetaClient, MetaCmd, ProposeOutcome};
use super::{ClusterStats, Migration, Want};
use crate::server::CleanPhase;
use crate::store::Store;

/// Copy, fixup and verify chunk (bytes).
const COPY_CHUNK: usize = 64 * 1024;

/// Why a migration did not commit. In every case but a `MetaUnavailable`
/// after the commit was proposed, the source remains the owner (the
/// metadata service never saw, or refused, the commit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrateError {
    /// Another migration is still recorded, or the metadata service
    /// refused `MigrateStart` (migration already in flight, destination
    /// down, or destination already owns the shard).
    Rejected,
    /// No metadata leader/majority reachable within the deadline. After
    /// the commit was proposed this leaves the outcome unknown: the source
    /// stays sealed, and the settle step finishes the migration once a
    /// majority is reachable again.
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
        let ours = Some((shard as u32, to as u32));

        // Step 1: record the migration, then replicate the intent. The
        // record comes first, so a start whose ack is lost ends in an
        // abort rather than holding the slot.
        let dest_pool = Arc::new(PmemPool::new(layout.total_len()));
        let recorded = plane.record(Migration {
            shard,
            to,
            epoch: 0,
            pool: Arc::clone(&dest_pool),
            want: Want::Copying,
        });
        if !recorded {
            return Err(MigrateError::Rejected);
        }
        // The driver borrows the destination agent's fabric identity for
        // the control RPCs and the copy verbs.
        let local = self.agent_node(to).clone();
        let mut mc = MetaClient::new(self.fabric(), &local, self.meta_nodes());
        let start = match mc.propose(
            &MetaCmd::MigrateStart {
                shard: shard as u32,
                to: to as u32,
            },
            sim::now() + sim::millis(2),
        ) {
            ProposeOutcome::Committed(state) if state.migrating == ours => state,
            outcome => {
                plane.record_mut(|m| m.want = Want::Abort);
                return Err(match outcome {
                    ProposeOutcome::Unavailable => MigrateError::MetaUnavailable,
                    _ => MigrateError::Rejected,
                });
            }
        };
        plane.record_mut(|m| m.epoch = start.placement.epoch);
        // A backup of the shard on the destination is out of sync (the
        // metadata service refuses a start onto an in-sync one), and its
        // seat is about to take the copy: retire it, so no agent ever
        // promotes it.
        if let Some(b) = self.backup(shard).filter(|b| b.data_node() == to) {
            b.claim();
        }
        self.stats().migrations_started.inc();

        // Every abort before the commit is proposed: the source was never
        // flipped away, so the driver unseals it (a no-op before the seal)
        // and settles the abort.
        let abort = |mc: &mut MetaClient, err: MigrateError| {
            src.unseal();
            plane.record_mut(|m| m.want = Want::Abort);
            plane.settle(mc, start.clone());
            plane.stats.migrations_aborted.inc();
            err
        };

        // Destination scaffolding: a listener so the driver's QP can
        // connect, and a registration covering the whole pool. Offsets
        // line up 1:1 with the source — both pools share one layout. Its
        // pmem counters and tracer are the destination seat's, so the new
        // owner's pool work shows under that seat.
        let dest_node: Node = self.seat_node(to, shard).clone();
        let dest_cfg = plane.seat_cfg(to, shard);
        dest_pool
            .stats()
            .register_prefixed(&dest_cfg.obs.registry, &dest_cfg.counter_prefix);
        dest_pool.set_tracer(dest_cfg.obs.tracer.clone());
        let _dest_listener = dest_node.listen_with(self.fabric(), false, 0);
        let dest_mr = dest_node.register_mr(&dest_pool, 0, layout.total_len());

        let (src_qp, dest_qp) = self
            .fabric()
            .connect(&local, &src_node)
            .and_then(|src_qp| Ok((src_qp, self.fabric().connect(&local, &dest_node)?)))
            .map_err(|_| abort(&mut mc, MigrateError::CopyFailed))?;
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
            .map_err(|_| abort(&mut mc, MigrateError::CopyFailed))?;

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
                return Err(abort(&mut mc, MigrateError::CleanTimeout));
            }
            sim::sleep(sim::micros(50));
        }
        src.seal();
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
                return Err(abort(&mut mc, MigrateError::DrainTimeout));
            }
            sim::sleep(sim::micros(5));
        }
        self.stats().drain_waits.inc();

        // Step 5: fixup + verify the whole pool against the frozen source.
        let total = layout.total_len();
        let (fixup_bytes, verify_diff_bytes) = copier
            .pass(Pass::Fixup, 0..total)
            .and_then(|fixup| Ok((fixup, copier.pass(Pass::Verify, 0..total)?)))
            .map_err(|_| abort(&mut mc, MigrateError::CopyFailed))?;
        if verify_diff_bytes != 0 {
            // The copy is not byte-identical to the frozen source: never
            // flip ownership onto it.
            return Err(abort(&mut mc, MigrateError::CopyFailed));
        }
        // The copy landed in the destination's volatile domain: persist it
        // before ownership can flip onto it, so a destination that power-
        // fails after the commit recovers the whole shard. Like the
        // recovery that adopts it, this charges no virtual time.
        dest_pool.persist(0, total);

        // Step 6a: decommission the source's read paths *before* the
        // flip, so no straggler can be served stale bytes afterwards: pure
        // probes fall back to RPC, where the seal answers `WrongEpoch`.
        src.retire_reads();

        // Step 6b: the commit point — ownership flips here and only here.
        // The settle step proposes it and, once a committed state shows
        // the flip, adopts the copy (step 7). Wait for a committed state
        // to show the outcome either way.
        plane.record_mut(|m| m.want = Want::Commit);
        let deadline = sim::now() + sim::millis(3);
        let mut state = Some(start);
        let epoch = loop {
            if let Some(s) = state.take() {
                let s = plane.settle(&mut mc, s);
                if s.placement.node_of_shard(shard) == to {
                    break s.placement.epoch;
                }
                if s.migrating != ours {
                    // Auto-aborted under us (an endpoint was declared
                    // dead): the settle step dropped the record.
                    plane.stats.migrations_aborted.inc();
                    return Err(MigrateError::CommitRefused);
                }
            }
            if sim::now() >= deadline {
                // Outcome unknown within the bound: consistency over
                // availability. Serving the source could double-own the
                // shard if the commit did land, so it stays sealed until
                // the settle step learns the outcome.
                return Err(MigrateError::MetaUnavailable);
            }
            sim::sleep(sim::micros(20));
            state = mc.get_map(sim::now() + sim::millis(1));
        };
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
        })
    }
}
