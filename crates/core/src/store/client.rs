//! The routed client: one [`Client`] per shard, one retry loop.
//!
//! [`StoreClient`] sends each key to its shard by [`key_shard`] and runs
//! transactions over every shard through the drivers in [`crate::txn`].
//! It connects to each shard's current seat in the store's seat table,
//! and topologies differ only in how a shard is re-resolved after an
//! error:
//!
//! * **static** (no backups, one data node): never — the error surfaces
//!   to the caller;
//! * **failover** (a store with backups): on a transport error, poll the
//!   shard's seat every 100 µs for up to 200 ms until the backup has
//!   promoted, reconnect, and retry — at most twice per op;
//! * **placement** (a store on several data nodes): on `WrongEpoch`,
//!   re-read the placement from the metadata service and reconnect every
//!   shard whose owner moved; on a transport error, also reconnect the
//!   shard that failed (every shard, for a multi-shard op). Retries back
//!   off from 5 µs, doubling up to 250 µs, for 32 tries.
//!
//! Transactions keep each topology's retry grain. Under failover each RPC
//! of a transaction retries on its own: a promoted backup stands in for
//! exactly one shard, so the other participants' prepared state stays
//! valid. The retried RPC runs on a new QP, outside the old connection's
//! exactly-once window, so a blind-write transaction may re-execute (same
//! values, new versions — like a replayed PUT) while read-modify-writes
//! stay correct through read-set validation. Under placement the whole
//! transaction retries with a fresh id: a `WrongEpoch` arrives inside a
//! participant's reply rather than as a transport error, and it voids the
//! routing the whole attempt ran under. Whenever a prepare fails, with a
//! status or in transport, [`txn::put_all_routed`] aborts the siblings
//! already prepared before the error surfaces.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use efactory_rnic::{Fabric, Node, QpError};
use efactory_sim as sim;

use super::{Routes, Seat, Seats};
use crate::client::{Client, ClientConfig, RemoteKv};
use crate::cluster::{key_shard, ClusterStats, MetaClient};
use crate::protocol::{Status, StoreError};
use crate::repl::PROMOTED;
use crate::txn::{self, TxnKv, TxnSnapshot};

/// Failovers allowed per op.
const MAX_FAILOVERS: usize = 2;

/// How long a failover polls the seat for a promotion. Comfortably
/// covers crash detection (the backup's 100 µs receive deadline) plus
/// drain and replay.
const FAILOVER_DEADLINE: sim::Nanos = 200_000_000; // 200 virtual ms

/// Placement retries per op. A migrating shard answers `WrongEpoch` for
/// its whole sealed window (drain + fixup + verify + destination
/// recovery), so the budget must outlast it: with the capped backoff below
/// this rides out ~7 ms of rejections while still surfacing a persistently
/// dead owner as an error.
const MAX_TRIES: usize = 32;

/// Placement retry backoff cap (the budget above assumes this).
const MAX_BACKOFF: sim::Nanos = 250_000;

/// What a failed attempt covered, which decides what it re-resolves.
#[derive(Clone, Copy)]
enum Scope {
    /// A single-key op on shard `g`.
    Key(usize),
    /// One RPC of a multi-shard op, on shard `g`.
    Rpc(usize),
    /// A whole multi-shard op.
    All,
}

impl Scope {
    fn covers(self, g: usize) -> bool {
        match self {
            Scope::Key(s) | Scope::Rpc(s) => s == g,
            Scope::All => true,
        }
    }
}

enum Resolve {
    /// Errors surface.
    Static,
    /// Wait for the shard's backup to promote.
    Failover,
    /// Cluster placement through the metadata service.
    Placement(Box<Placement>),
}

struct Placement {
    meta: RefCell<MetaClient>,
    stats: Arc<ClusterStats>,
}

/// A client of a [`Store`](super::Store): one [`Client`] per shard, each
/// op routed to the key's owner. Not `Sync`: one per simulated process,
/// like [`Client`].
pub struct StoreClient {
    fabric: Arc<Fabric>,
    local: Node,
    cfg: ClientConfig,
    seats: Arc<Seats>,
    /// One connection per shard, in shard order.
    conns: Vec<RefCell<Client>>,
    /// Owner each connection targets, in shard order.
    owners: RefCell<Vec<usize>>,
    resolve: Resolve,
    /// Transaction-id source shared by every shard connection and kept
    /// across reconnects: one logical transaction carries one id across
    /// its 2PC participants, and a replayed id never aliases an earlier
    /// in-doubt transaction on a promoted backup.
    next_txn_id: Cell<u64>,
    failovers: Cell<u64>,
    /// Retries counted by connections since replaced, so
    /// [`retry_total`](Self::retry_total) never goes backwards.
    retired_retries: Cell<u64>,
}

impl StoreClient {
    /// Connect `local` to every shard behind `routes`, at its current
    /// seat. Must run inside a simulated process.
    pub fn connect(
        fabric: &Arc<Fabric>,
        local: &Node,
        routes: &Routes,
        cfg: ClientConfig,
    ) -> Result<StoreClient, StoreError> {
        let (resolve, epoch) = match &routes.meta {
            Some(m) => {
                let mut meta = MetaClient::new(fabric, local, &m.nodes);
                let state = meta
                    .get_map(sim::now() + sim::millis(5))
                    .ok_or(StoreError::Protocol)?;
                let p = Placement {
                    meta: RefCell::new(meta),
                    stats: Arc::clone(&m.stats),
                };
                (Resolve::Placement(Box::new(p)), state.placement.epoch)
            }
            None if routes.backups => (Resolve::Failover, 0),
            None => (Resolve::Static, 0),
        };
        let seats = routes.seats.all();
        assert!(!seats.is_empty(), "a store has at least one shard");
        let mut client = StoreClient {
            fabric: Arc::clone(fabric),
            local: local.clone(),
            cfg,
            seats: Arc::clone(&routes.seats),
            conns: Vec::with_capacity(seats.len()),
            owners: RefCell::new(seats.iter().map(|s| s.owner).collect()),
            resolve,
            next_txn_id: Cell::new(1),
            failovers: Cell::new(0),
            retired_retries: Cell::new(0),
        };
        for (g, seat) in seats.iter().enumerate() {
            let c = client.dial(g, seat)?;
            c.set_placement_epoch(epoch);
            client.conns.push(RefCell::new(c));
        }
        Ok(client)
    }

    /// The shard `key` routes to.
    pub fn shard_for(&self, key: &[u8]) -> usize {
        key_shard(key, self.conns.len())
    }

    /// How many times a shard re-resolved to its promoted backup.
    pub fn failovers(&self) -> u64 {
        self.failovers.get()
    }

    /// Store `value` under `key` on the owning shard.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.on_key(key, |c| c.put(key, value))
    }

    /// Read `key` from the owning shard.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        self.on_key(key, |c| c.get(key))
    }

    /// Delete `key` (tombstone) on the owning shard.
    pub fn del(&self, key: &[u8]) -> Result<(), StoreError> {
        self.on_key(key, |c| c.del(key))
    }

    /// Sum of every connection's retry counters; deltas across an op give
    /// its root span's `retries` arg.
    pub(crate) fn retry_total(&self) -> u64 {
        self.retired_retries.get()
            + self
                .conns
                .iter()
                .map(|c| c.borrow().retry_total())
                .sum::<u64>()
    }

    fn on_key<T>(
        &self,
        key: &[u8],
        op: impl Fn(&Client) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let g = self.shard_for(key);
        self.retry(Scope::Key(g), || op(&self.conns[g].borrow()))
    }

    /// Connect shard `g`'s client to `seat`.
    fn dial(&self, g: usize, seat: &Seat) -> Result<Client, StoreError> {
        let mut cfg = self.cfg.clone();
        cfg.shard = g as u32;
        let server = &seat.server;
        Client::connect(
            &self.fabric,
            &self.local,
            &server.shared().node,
            server.desc(),
            cfg,
        )
    }

    fn replace(&self, g: usize, c: Client) {
        let old = self.conns[g].replace(c);
        self.retired_retries
            .set(self.retired_retries.get() + old.retry_total());
    }

    /// The one retry loop: run `op`, and after an error re-resolve what
    /// `scope` covered the way the topology prescribes (see the module
    /// docs), or hand the error back.
    fn retry<T>(
        &self,
        scope: Scope,
        mut op: impl FnMut() -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut failovers = 0;
        let mut tries = 0;
        let mut backoff = sim::micros(5);
        loop {
            let err = match op() {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            match (&self.resolve, scope) {
                (Resolve::Failover, Scope::Key(g) | Scope::Rpc(g)) => {
                    let transport = matches!(
                        err,
                        StoreError::Qp(QpError::Crashed | QpError::Timeout | QpError::Disconnected)
                    );
                    if !transport || failovers == MAX_FAILOVERS {
                        return Err(err);
                    }
                    failovers += 1;
                    self.fail_over(g)?;
                }
                (Resolve::Placement(p), Scope::Key(_) | Scope::All) => {
                    match err {
                        StoreError::Status(Status::WrongEpoch) => {
                            p.stats.client_retargets.inc();
                            self.refresh(p, None);
                        }
                        StoreError::Qp(_) => self.refresh(p, Some(scope)),
                        _ => return Err(err),
                    }
                    sim::sleep(backoff);
                    backoff = (backoff * 2).min(MAX_BACKOFF);
                    tries += 1;
                    if tries == MAX_TRIES {
                        return Err(err);
                    }
                }
                _ => return Err(err),
            }
        }
    }

    /// Wait (bounded) for shard `g`'s backup to finish promoting, then
    /// reconnect to it.
    fn fail_over(&self, g: usize) -> Result<(), StoreError> {
        let deadline = sim::now() + FAILOVER_DEADLINE;
        loop {
            let seat = self.seats.get(g);
            if seat.owner == PROMOTED {
                self.replace(g, self.dial(g, &seat)?);
                self.failovers.set(self.failovers.get() + 1);
                return Ok(());
            }
            if sim::now() >= deadline {
                return Err(StoreError::Qp(QpError::Timeout));
            }
            sim::sleep(sim::micros(100));
        }
    }

    /// Re-read the placement and reconnect every shard whose owner moved,
    /// plus those `force` covers (their QP broke: a restarted owner has a
    /// fresh listener even though the owner index is unchanged). Stamps
    /// the new epoch into every connection's location cache. An
    /// unreachable metadata service or a failed reconnect leaves the old
    /// connection in place for the next try.
    fn refresh(&self, p: &Placement, force: Option<Scope>) {
        p.stats.client_refreshes.inc();
        let Some(state) = p.meta.borrow_mut().get_map(sim::now() + sim::millis(2)) else {
            return;
        };
        for (g, owner) in self.owners.borrow_mut().iter_mut().enumerate() {
            let seat = self.seats.get(g);
            if seat.owner != *owner || force.is_some_and(|s| s.covers(g)) {
                if let Ok(c) = self.dial(g, &seat) {
                    self.replace(g, c);
                    *owner = seat.owner;
                }
            }
        }
        for c in &self.conns {
            c.borrow().set_placement_epoch(state.placement.epoch);
        }
    }

    fn poll_events(&self) {
        for c in &self.conns {
            c.borrow().poll_events();
        }
    }

    /// Run a multi-shard op under the whole-op retry, inside one `"op"`
    /// root of `kind` that carries the op's retries.
    fn rooted<T>(
        &self,
        kind: u64,
        key: &[u8],
        mut op: impl FnMut(&[ShardConn<'_>]) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        self.poll_events();
        let mut ctx = self.conns[0].borrow().op_root(kind, key);
        let before = self.retry_total();
        let shards = self.shard_conns();
        let result = self.retry(Scope::All, || op(&shards));
        ctx.set_retries(self.retry_total() - before);
        result
    }

    /// Count a commit.
    fn committed(&self, result: Result<u64, StoreError>) -> Result<u64, StoreError> {
        if result.is_ok() {
            self.conns[0].borrow().txn_commit_ctr.inc();
        }
        result
    }

    fn shard_conns(&self) -> Vec<ShardConn<'_>> {
        (0..self.conns.len())
            .map(|g| ShardConn { client: self, g })
            .collect()
    }
}

impl RemoteKv for StoreClient {
    fn kv_put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.put(key, value)
    }
    fn kv_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        self.get(key)
    }
    fn txn(&self) -> Option<&dyn TxnKv> {
        Some(self)
    }
}

impl TxnKv for StoreClient {
    fn txn_put_all(&self, puts: &[(Vec<u8>, Vec<u8>)]) -> Result<u64, StoreError> {
        let first = puts.first().map_or(&[][..], |(k, _)| k.as_slice());
        self.committed(self.rooted(3, first, |s| {
            txn::put_all_routed(s, &self.next_txn_id, puts)
        }))
    }

    fn txn_rmw(
        &self,
        key: &[u8],
        f: &mut dyn FnMut(Option<Vec<u8>>) -> Vec<u8>,
    ) -> Result<u64, StoreError> {
        self.committed(self.rooted(3, key, |s| txn::rmw_routed(s, &self.next_txn_id, key, f)))
    }

    fn snapshot(&self) -> Result<TxnSnapshot, StoreError> {
        self.poll_events();
        let shards = self.shard_conns();
        self.retry(Scope::All, || txn::snapshot_all(&shards))
    }

    fn snap_get(&self, key: &[u8], snap: &TxnSnapshot) -> Result<Option<Vec<u8>>, StoreError> {
        self.rooted(4, key, |s| txn::snap_get_routed(s, key, snap))
    }
}

/// Shard `g` of a [`StoreClient`] as the transaction drivers in
/// [`crate::txn`] see it: every RPC runs under the per-RPC retry.
pub(crate) struct ShardConn<'a> {
    client: &'a StoreClient,
    g: usize,
}

impl ShardConn<'_> {
    /// Run one RPC on this shard's connection.
    pub(crate) fn rpc<T>(
        &self,
        op: impl Fn(&Client) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let (client, g) = (self.client, self.g);
        client.retry(Scope::Rpc(g), || op(&client.conns[g].borrow()))
    }
}
