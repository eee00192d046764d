//! The routed client: one [`Client`] per shard, one retry loop, one
//! retry grain, one root per op.
//!
//! [`StoreClient`] sends each key to its shard by [`key_shard`] and runs
//! transactions over every shard through the drivers in [`crate::txn`].
//! It connects to each shard's current seat in the store's seat table.
//! The routed op is the unit of retry: a single-key op covers its key's
//! shard, a transaction or snapshot covers every shard, and a failed
//! attempt re-resolves what it covered and runs again whole. A `Client`
//! call is one attempt; `StoreClient::retry` is the one loop that
//! re-attempts an op. On every topology it rides out transient
//! `Busy`/`NoSpace` rejections (a pool filling up under cleaning pressure,
//! a PUT whose in-doubt head outlasted the handler's `PARK_LIMIT`, a
//! primary whose mirror just failed) with 200 waits of 50 µs. Stores
//! differ only in how they re-resolve other errors:
//!
//! * **static** (no backups, one data node): never — the error surfaces
//!   to the caller;
//! * **placement** (every store with a control plane: several data nodes,
//!   or backups): on `WrongEpoch`, re-read the placement from the metadata
//!   service and reconnect every shard whose owner moved; on a transport
//!   error, also reconnect every covered shard. A migration commit and a
//!   promotion reach the client the same way. Retries back off from 5 µs,
//!   doubling up to 250 µs, for 32 tries per op.
//!
//! Every op but a snapshot capture runs inside one root `"op"` span,
//! opened at its first attempt and closed when it returns, so the
//! critical-path fold sees one root per op; each wait above is a
//! `backoff` phase of it, and the root's `retries` arg counts every
//! re-attempt inside the op. A pipeline slot records its op's root itself
//! (submit → completion), so inside a slot the routed client opens none.
//!
//! A retried transaction runs under a fresh txn id, with the wait-die
//! priority of its first attempt. Before an attempt's
//! error surfaces, [`txn::put_all_routed`] aborts every participant it
//! prepared and did not decide, so the retry never waits on that attempt's
//! in-doubt heads. A participant that had already committed gets the same
//! values again as a new version, like a replayed PUT.

use std::cell::{Cell, Ref, RefCell};
use std::sync::Arc;

use efactory_obs::trace::current_op;
use efactory_obs::{Obs, OpScope, RootKind, Subsystem};
use efactory_rnic::{Fabric, Node};
use efactory_sim as sim;

use super::{Routes, Seat, Seats};
use crate::client::{backoff_sleep, Client, ClientConfig, RemoteKv};
use crate::cluster::{key_shard, ClusterStats, MetaClient};
use crate::hashtable::fingerprint;
use crate::protocol::{Status, StoreError};
use crate::txn::{self, TxnKv, TxnSnapshot};

/// `Busy`/`NoSpace` re-attempts per op, each after [`PATIENCE_WAIT`].
const PATIENCE: usize = 200;

/// The wait before each `Busy`/`NoSpace` re-attempt.
const PATIENCE_WAIT: sim::Nanos = sim::micros(50);

/// Placement retries per op. A migrating shard answers `WrongEpoch` for
/// its whole sealed window (drain + fixup + verify + destination
/// recovery), and a dead owner's shard waits for its death to commit and
/// its backup to promote, so the budget must outlast both: with the capped
/// backoff below this rides out ~7 ms of rejections while still surfacing
/// a persistently dead owner as an error.
const MAX_TRIES: usize = 32;

/// Placement retry backoff cap (the budget above assumes this).
const MAX_BACKOFF: sim::Nanos = 250_000;

/// The placement retry schedule of one op (or one shard's connect): a
/// wait before each re-attempt, from 5 µs doubling up to [`MAX_BACKOFF`],
/// and [`MAX_TRIES`] waits in all.
struct Backoff {
    wait: sim::Nanos,
    waits: usize,
}

impl Backoff {
    fn new() -> Backoff {
        Backoff {
            wait: sim::micros(5),
            waits: 0,
        }
    }

    /// Wait out the next step; `false` once this was the last one.
    fn wait(&mut self, obs: &Obs) -> bool {
        backoff_sleep(obs, self.wait);
        self.wait = (self.wait * 2).min(MAX_BACKOFF);
        self.waits += 1;
        self.waits < MAX_TRIES
    }
}

/// What a failed attempt covered, which decides what it re-resolves.
#[derive(Clone, Copy)]
enum Scope {
    /// A single-key op on shard `g`.
    Key(usize),
    /// A whole multi-shard op.
    All,
}

impl Scope {
    fn covers(self, g: usize) -> bool {
        match self {
            Scope::Key(s) => s == g,
            Scope::All => true,
        }
    }
}

enum Resolve {
    /// Errors surface.
    Static,
    /// Placement through the metadata service.
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
    /// across reconnects: one attempt carries one id across its 2PC
    /// participants, and every attempt takes a fresh one, so a retry never
    /// aliases an earlier attempt's in-doubt state.
    next_txn_id: Cell<u64>,
    /// Re-attempts no live connection counts: every routed re-attempt,
    /// plus the retries of connections since replaced, so
    /// [`retry_total`](Self::retry_total) never goes backwards.
    retries: Cell<u64>,
    /// This client's coordinator id, the wait-die tie-break between
    /// transactions that start at the same instant: the fabric-unique id
    /// of its first connection.
    coord: u64,
}

impl StoreClient {
    /// Connect `local` to every shard behind `routes`, at its current
    /// seat. On a store with a control plane, a seat that cannot be dialed
    /// (its owner just died) is retried with the placement backoff until
    /// the shard's new seat takes it. Must run inside a simulated process.
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
            None => (Resolve::Static, 0),
        };
        let shards = routes.seats.all().len();
        assert!(shards > 0, "a store has at least one shard");
        let mut client = StoreClient {
            fabric: Arc::clone(fabric),
            local: local.clone(),
            cfg,
            seats: Arc::clone(&routes.seats),
            conns: Vec::with_capacity(shards),
            owners: RefCell::new(Vec::with_capacity(shards)),
            resolve,
            next_txn_id: Cell::new(1),
            retries: Cell::new(0),
            coord: 0,
        };
        for g in 0..shards {
            let mut backoff = Backoff::new();
            let (c, owner) = loop {
                let seat = client.seats.get(g);
                match client.dial(&seat) {
                    Ok(c) => break (c, seat.owner),
                    Err(e) => {
                        let placement = matches!(client.resolve, Resolve::Placement(_));
                        if !(placement && backoff.wait(&client.cfg.obs)) {
                            return Err(e);
                        }
                    }
                }
            };
            c.set_placement_epoch(epoch);
            if g == 0 {
                client.coord = c.qp_id();
            }
            client.conns.push(RefCell::new(c));
            client.owners.get_mut().push(owner);
        }
        Ok(client)
    }

    /// The shard `key` routes to.
    pub fn shard_for(&self, key: &[u8]) -> usize {
        key_shard(key, self.conns.len())
    }

    /// Store `value` under `key` on the owning shard.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.on_key(RootKind::Put, key, |c| c.put(key, value))
    }

    /// Read `key` from the owning shard.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        self.on_key(RootKind::Get, key, |c| c.get(key))
    }

    /// Delete `key` (tombstone) on the owning shard.
    pub fn del(&self, key: &[u8]) -> Result<(), StoreError> {
        self.on_key(RootKind::Del, key, |c| c.del(key))
    }

    /// Every re-attempt this client made: each connection's retry
    /// counters plus the routed re-attempts. Deltas across an op give its
    /// root span's `retries` arg.
    pub(crate) fn retry_total(&self) -> u64 {
        self.retries.get()
            + self
                .conns
                .iter()
                .map(|c| c.borrow().retry_total())
                .sum::<u64>()
    }

    fn on_key<T>(
        &self,
        kind: RootKind,
        key: &[u8],
        op: impl Fn(&Client) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let g = self.shard_for(key);
        self.rooted(kind, Scope::Key(g), key, || op(&self.conns[g].borrow()))
    }

    /// Connect a shard's client to `seat`.
    fn dial(&self, seat: &Seat) -> Result<Client, StoreError> {
        let server = &seat.server;
        Client::connect(
            &self.fabric,
            &self.local,
            &server.shared().node,
            server.desc(),
            self.cfg.clone(),
        )
    }

    fn replace(&self, g: usize, c: Client) {
        let old = self.conns[g].replace(c);
        self.retries.set(self.retries.get() + old.retry_total());
    }

    /// Run `op` under [`retry`](Self::retry) as one op: inside a root
    /// `"op"` span of `kind` that carries the op's shard, key fingerprint
    /// and re-attempts — unless the caller already runs an op (a pipeline
    /// slot, which records the root itself).
    fn rooted<T>(
        &self,
        kind: RootKind,
        scope: Scope,
        key: &[u8],
        op: impl FnMut() -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        if current_op() != 0 {
            return self.retry(scope, op);
        }
        let _op = OpScope::enter(self.cfg.obs.next_op_id());
        let mut root = self.cfg.obs.tracer.span(Subsystem::Client, "op");
        root.arg("kind", kind.code());
        root.arg(
            "shard",
            match scope {
                Scope::Key(g) => g as u64,
                Scope::All => 0,
            },
        );
        root.arg("key_fp", fingerprint(key));
        let before = self.retry_total();
        let result = self.retry(scope, op);
        root.arg("retries", self.retry_total() - before);
        result
    }

    /// The one retry loop: run `op`, and after an error wait out a
    /// transient rejection or re-resolve what `scope` covered the way the
    /// topology prescribes (see the module docs), or hand the error back.
    fn retry<T>(
        &self,
        scope: Scope,
        mut op: impl FnMut() -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut patience = 0;
        let mut backoff = Backoff::new();
        loop {
            let err = match op() {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            match (&self.resolve, err) {
                (_, StoreError::Status(Status::Busy | Status::NoSpace)) if patience < PATIENCE => {
                    patience += 1;
                    backoff_sleep(&self.cfg.obs, PATIENCE_WAIT);
                }
                (
                    Resolve::Placement(p),
                    err @ (StoreError::Status(Status::WrongEpoch) | StoreError::Qp(_)),
                ) => {
                    if let StoreError::Qp(_) = err {
                        self.refresh(p, Some(scope));
                    } else {
                        p.stats.client_retargets.inc();
                        self.refresh(p, None);
                    }
                    if !backoff.wait(&self.cfg.obs) {
                        return Err(err);
                    }
                }
                (_, err) => return Err(err),
            }
            self.retries.set(self.retries.get() + 1);
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
        self.redial(|g, moved| moved || force.is_some_and(|s| s.covers(g)));
        for c in &self.conns {
            c.borrow().set_placement_epoch(state.placement.epoch);
        }
    }

    /// Reconnect each shard `pick(g, moved)` selects to its current seat,
    /// where `moved` says the seat's owner is not the one the shard's
    /// connection targets. A failed reconnect keeps the old connection and
    /// its owner for the next try.
    fn redial(&self, pick: impl Fn(usize, bool) -> bool) {
        for (g, owner) in self.owners.borrow_mut().iter_mut().enumerate() {
            let seat = self.seats.get(g);
            if pick(g, seat.owner != *owner) {
                if let Ok(c) = self.dial(&seat) {
                    self.replace(g, c);
                    *owner = seat.owner;
                }
            }
        }
    }

    /// Count a commit.
    fn committed(&self, result: Result<u64, StoreError>) -> Result<u64, StoreError> {
        if result.is_ok() {
            self.conns[0].borrow().txn_commit_ctr.inc();
        }
        result
    }

    /// Every shard's connection, held for one attempt of a multi-shard op,
    /// each with its pending server notifications drained.
    fn shards(&self) -> Vec<Ref<'_, Client>> {
        self.conns
            .iter()
            .map(|c| {
                let c = c.borrow();
                c.poll_events();
                c
            })
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
        // Fixed at the first attempt, so a retried transaction ages.
        let prio = (sim::now(), self.coord);
        self.committed(self.rooted(RootKind::Txn, Scope::All, first, || {
            txn::put_all_routed(&self.shards(), &self.next_txn_id, prio, puts)
        }))
    }

    fn txn_rmw(
        &self,
        key: &[u8],
        f: &mut dyn FnMut(Option<Vec<u8>>) -> Vec<u8>,
    ) -> Result<u64, StoreError> {
        self.committed(self.rooted(RootKind::Txn, Scope::All, key, || {
            txn::rmw_routed(&self.shards(), &self.next_txn_id, key, f)
        }))
    }

    fn snapshot(&self) -> Result<TxnSnapshot, StoreError> {
        self.retry(Scope::All, || txn::snapshot_all(&self.shards()))
    }

    fn snap_get(
        &self,
        keys: &[Vec<u8>],
        snap: &TxnSnapshot,
    ) -> Result<Vec<Option<Vec<u8>>>, StoreError> {
        let first = keys.first().map_or(&[][..], Vec::as_slice);
        self.rooted(RootKind::Snap, Scope::All, first, || {
            txn::snap_get_all(&self.shards(), keys, snap)
        })
    }
}
