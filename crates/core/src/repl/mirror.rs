//! Primary-side mirroring: ship verified log runs to the backup.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use efactory_obs::Subsystem;
use efactory_rnic::{ClientQp, Fabric, RemoteMr};

use super::{ReplStats, ReplTarget};
use crate::server::ServerShared;

/// The verifier's outbound replication channel. Owned by the verifier
/// process; [`push`](Mirror::push) coalesces the objects the cursor
/// advances past into contiguous runs, and [`flush`](Mirror::flush) ships
/// each run to the backup with a single `rdma_write_imm` whose immediate
/// carries the run's log offset (so the backup knows where the bytes
/// landed without any metadata exchange).
///
/// A write to the backup that fails (backup crashed, link partitioned)
/// ends the mirror for good and sets the shard's
/// [`mirror_lost`](ServerShared::mirror_lost): the primary answers writes
/// with `Busy` until the metadata service commits `BackupLost`, then runs
/// unreplicated. A stopped server (a deposed owner) ships nothing.
pub struct Mirror {
    qp: ClientQp,
    mr: RemoteMr,
    stats: Arc<ReplStats>,
    /// Flush after this many objects accumulate (doorbell batching).
    batch: usize,
    /// Pending contiguous run: (start offset, byte length, object count).
    run: Option<(usize, usize, u64)>,
    dead: bool,
}

impl Mirror {
    /// Connect the verifier's QP to the backup. Must run inside a simulated
    /// process (the verifier's own). Returns `None`, with the mirror
    /// counted lost, if the backup is unreachable.
    pub fn connect(
        fabric: &Arc<Fabric>,
        shared: &ServerShared,
        target: &ReplTarget,
    ) -> Option<Mirror> {
        match fabric.connect(&shared.node, &target.backup) {
            Ok(qp) => Some(Mirror {
                qp,
                mr: target.mr,
                stats: Arc::clone(&target.stats),
                batch: target.batch.max(1),
                run: None,
                dead: false,
            }),
            Err(_) => {
                target.stats.mirror_failures.inc();
                shared.mirror_lost.store(true, Ordering::Relaxed);
                None
            }
        }
    }

    /// Record that the verifier advanced past the object at `off`
    /// (`size` bytes). Contiguous objects extend the pending run; a gap
    /// flushes the old run and starts a new one.
    pub fn push(&mut self, shared: &ServerShared, off: usize, size: usize) {
        if self.dead {
            return;
        }
        match &mut self.run {
            Some((start, len, objs)) if *start + *len == off => {
                *len += size;
                *objs += 1;
            }
            Some(_) => {
                self.flush(shared);
                self.run = Some((off, size, 1));
            }
            None => self.run = Some((off, size, 1)),
        }
        if self.run.map_or(0, |(_, _, o)| o) >= self.batch as u64 {
            self.flush(shared);
        }
    }

    /// Ship the pending run, if any. Called on batch-full, on a gap, and
    /// before every verifier idle sleep (so a quiescent primary never sits
    /// on an unshipped tail).
    pub fn flush(&mut self, shared: &ServerShared) {
        let Some((start, len, objs)) = self.run.take() else {
            return;
        };
        if self.dead || shared.stopping() {
            return;
        }
        let mut data = vec![0u8; len];
        shared.pool.read(start, &mut data);
        let mut sp = shared.cfg.obs.tracer.span(Subsystem::Repl, "repl_mirror");
        sp.arg("off", start as u64);
        sp.arg("bytes", len as u64);
        sp.arg("objects", objs);
        debug_assert!(
            start <= u32::MAX as usize,
            "log offset must fit the immediate"
        );
        match self.qp.rdma_write_imm(&self.mr, start, data, start as u32) {
            Ok(()) => {
                self.stats.mirror_batches.inc();
                self.stats.mirror_objects.add(objs);
                self.stats.mirror_bytes.add(len as u64);
            }
            Err(_) => {
                // Backup gone: hold writes until the loss commits.
                self.dead = true;
                shared.mirror_lost.store(true, Ordering::Relaxed);
                self.stats.mirror_failures.inc();
            }
        }
    }
}
