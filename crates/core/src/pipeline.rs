//! Pipelined client: a bounded window of K in-flight operations.
//!
//! The paper's client-active write scheme keeps the server CPU off the
//! critical path, but the plain [`Client`](crate::Client) still runs one
//! operation at a time — a full allocation-RPC round trip per PUT, a
//! bucket-probe RDMA read per cold GET — so a single client's throughput is
//! capped by latency rather than by what the fabric or the server can
//! sustain. The [`PipelinedClient`] lifts that cap the way real RDMA
//! clients do: it keeps up to `window` operations in flight at once, each
//! on its **own queue pair** with its own request-id space, and
//! doorbell-batches the send posts ([`efactory_rnic::SendDoorbell`]) the
//! way PR 2's server batched its receive-ring refills.
//!
//! ## Why one QP per slot
//!
//! The exactly-once envelope (framed request ids + per-QP server dedup)
//! assumes ids on a QP are issued and retired in order: the server records
//! only the *last* executed id per QP and drops anything older as stale.
//! Interleaving several outstanding ids on one QP would break that
//! contract — a retry of an older id would be discarded while a newer id
//! executed, starving the older operation. Giving every pipeline slot a
//! full [`StoreClient`] (own QP per shard, own monotonic ids, own
//! retry/backoff/`VERIFY_GRACE` machinery, own failover or placement
//! re-resolution) composes concurrency with the retry, dedup, and
//! lost-update guards *without touching their semantics* — every shard
//! sees `window` perfectly ordinary clients, on any topology.
//!
//! ## Per-slot state machine
//!
//! Each in-flight operation advances through the same states the serial
//! client does — alloc-RPC sent → value written → ack'd (or reissued under
//! `client.put_reissue` when the verifier raced a lossy fabric) — the slot
//! simply runs that machine concurrently with its siblings. The submitter
//! enforces **per-key hazards** so concurrency never reorders conflicting
//! effects: a write (PUT/DEL) waits until no operation on the same key is
//! in flight, a read waits only for in-flight writers of its key. With the
//! same seed and window, replay is byte-identical (slot selection is
//! lowest-free-first, all waits are deterministic channel receives).
//!
//! `window == 1` bypasses the machinery entirely and executes on a single
//! inner [`StoreClient`], op for op exactly like the serial client.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use efactory_obs::{Counter, OpScope, Subsystem};
use efactory_rnic::{Fabric, Node, SendDoorbell};
use efactory_sim as sim;
use efactory_sim::Nanos;

use crate::client::{ClientConfig, RemoteKv};
use crate::hashtable::fingerprint;
use crate::protocol::{Status, StoreError};
use crate::store::{Routes, StoreClient};
use crate::txn::TxnKv;

/// Pipeline knobs.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Maximum operations in flight (= pipeline slots). `1` executes
    /// serially on a single inner [`StoreClient`].
    pub window: usize,
    /// Doorbell chain length for client-side send posts (`<= 1`: one MMIO
    /// per post). Only the pipelined path charges send-post CPU; the
    /// serial `window == 1` path stays cost-identical to the plain client.
    pub doorbell_batch: usize,
    /// Configuration for every slot's inner client.
    pub client: ClientConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            window: 16,
            doorbell_batch: 16,
            client: ClientConfig::default(),
        }
    }
}

/// Operation kind, for completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Store (value carried in the job).
    Put,
    /// Read (value carried in the completion).
    Get,
    /// Tombstone.
    Del,
    /// Multi-key atomic transaction (write set carried in the job).
    Txn,
}

/// One finished operation, reported back to the submitter.
#[derive(Debug)]
pub struct OpCompletion {
    /// Submission sequence number (0-based, per pipelined client).
    pub seq: u64,
    /// What the operation was.
    pub kind: OpKind,
    /// The key it operated on (for `Txn`: the write set's first key).
    pub key: Vec<u8>,
    /// For `Txn`: every key in the write set, in submission order (hazard
    /// bookkeeping and the checker's history need all of them). Empty for
    /// single-key operations.
    pub txn_keys: Vec<Vec<u8>>,
    /// Virtual time the operation was handed to the pipeline.
    pub submitted_at: Nanos,
    /// Virtual time the slot finished it.
    pub done_at: Nanos,
    /// `Ok(Some(v))` for a GET hit; `Ok(None)` for PUT/DEL success or a
    /// GET miss.
    pub result: Result<Option<Vec<u8>>, StoreError>,
    /// For a committed `Txn`: the MVCC commit timestamp (history checkers
    /// order transactions by it). `None` for every other op.
    pub commit_ts: Option<u64>,
}

impl OpCompletion {
    /// End-to-end latency of this operation (submit → completion),
    /// including any time it spent waiting behind the window or a hazard.
    pub fn latency(&self) -> Nanos {
        self.done_at.saturating_sub(self.submitted_at)
    }
}

#[derive(Debug)]
enum Job {
    Op {
        seq: u64,
        /// Trace op id: the slot executes under this attribution scope so
        /// every span the inner client records folds into one breakdown.
        op: u64,
        kind: OpKind,
        key: Vec<u8>,
        value: Vec<u8>,
        /// `Txn` write set (empty for single-key ops).
        puts: Vec<(Vec<u8>, Vec<u8>)>,
        submitted_at: Nanos,
    },
    Shutdown,
}

struct SlotDone {
    slot: usize,
    completion: OpCompletion,
}

/// A client that keeps up to `window` operations in flight. Not `Sync`:
/// one pipelined client per simulated process, like [`StoreClient`].
pub struct PipelinedClient {
    /// Serial fast path (`window == 1`).
    sync: Option<StoreClient>,
    job_txs: Vec<sim::Sender<Job>>,
    comp_rx: Option<sim::Receiver<SlotDone>>,
    handles: Vec<sim::ProcessHandle>,
    /// Idle slots; the lowest index is always dispatched first so replay
    /// never depends on map iteration order.
    free: BTreeSet<usize>,
    inflight: usize,
    /// In-flight readers per key (writers must wait for these).
    readers: HashMap<Vec<u8>, usize>,
    /// In-flight writers per key (everything must wait for these).
    writers: HashMap<Vec<u8>, usize>,
    doorbell: SendDoorbell,
    next_seq: u64,
    cfg: PipelineConfig,
    submitted_ctr: Counter,
    completed_ctr: Counter,
    hazard_wait_ctr: Counter,
    window_wait_ctr: Counter,
    doorbell_ctr: Counter,
}

impl PipelinedClient {
    /// Connect a pipelined client: `window` slots, each a full
    /// [`StoreClient`] on its own QPs from `local` to the store behind
    /// `routes`. Must run inside a simulated process. `name` seeds the slot
    /// process names (determinism requires stable names).
    pub fn connect(
        fabric: &Arc<Fabric>,
        local: &Node,
        routes: &Routes,
        cfg: PipelineConfig,
        name: &str,
    ) -> Result<PipelinedClient, StoreError> {
        assert!(cfg.window >= 1, "pipeline window must be at least 1");
        let registry = &cfg.client.obs.registry;
        let submitted_ctr = registry.counter("client.pipeline.submitted");
        let completed_ctr = registry.counter("client.pipeline.completed");
        let hazard_wait_ctr = registry.counter("client.pipeline.hazard_waits");
        let window_wait_ctr = registry.counter("client.pipeline.window_waits");
        let doorbell_ctr = registry.counter("client.pipeline.doorbells");
        let doorbell = SendDoorbell::new(fabric.cost(), cfg.doorbell_batch);
        let sync = if cfg.window == 1 {
            Some(StoreClient::connect(
                fabric,
                local,
                routes,
                cfg.client.clone(),
            )?)
        } else {
            None
        };
        let slots = if sync.is_some() { 0 } else { cfg.window };
        let (comp_tx, comp_rx) = sim::channel::<SlotDone>();
        let mut job_txs = Vec::with_capacity(slots);
        let mut handles = Vec::with_capacity(slots);
        for slot in 0..slots {
            let (tx, rx) = sim::channel::<Job>();
            job_txs.push(tx);
            let comp_tx = comp_tx.clone();
            let fabric = Arc::clone(fabric);
            let local = local.clone();
            let routes = routes.clone();
            let client_cfg = cfg.client.clone();
            let tracer = client_cfg.obs.tracer.clone();
            handles.push(sim::spawn(&format!("{name}-slot{slot}"), move || {
                let client = match StoreClient::connect(&fabric, &local, &routes, client_cfg) {
                    Ok(c) => c,
                    Err(e) => panic!("pipeline slot {slot}: connect failed: {e:?}"),
                };
                while let Ok(job) = rx.recv() {
                    match job {
                        Job::Op {
                            seq,
                            op,
                            kind,
                            key,
                            value,
                            puts,
                            submitted_at,
                        } => {
                            // The slot owns the op's root span: its window
                            // is submit→completion, so time spent queued
                            // behind the pipeline window shows up as
                            // unattributed client gap in the breakdown.
                            let scope = OpScope::enter(op);
                            let retries_before = client.retry_total();
                            let (result, commit_ts) = run_op(&client, kind, &key, &value, &puts);
                            let retries = client.retry_total() - retries_before;
                            let done_at = sim::now();
                            let kind_code = match kind {
                                OpKind::Get => 0u64,
                                OpKind::Put => 1,
                                OpKind::Del => 2,
                                OpKind::Txn => 3,
                            };
                            tracer.record_span_at(
                                Subsystem::Client,
                                "op",
                                submitted_at,
                                done_at.saturating_sub(submitted_at),
                                &[
                                    ("kind", kind_code),
                                    ("shard", client.shard_for(&key) as u64),
                                    ("key_fp", fingerprint(&key)),
                                    ("retries", retries),
                                ],
                            );
                            drop(scope);
                            let done = SlotDone {
                                slot,
                                completion: OpCompletion {
                                    seq,
                                    kind,
                                    key,
                                    txn_keys: puts.into_iter().map(|(k, _)| k).collect(),
                                    submitted_at,
                                    done_at,
                                    result,
                                    commit_ts,
                                },
                            };
                            if comp_tx.send(done, 0).is_err() {
                                break;
                            }
                        }
                        Job::Shutdown => break,
                    }
                }
            }));
        }
        Ok(PipelinedClient {
            sync,
            job_txs,
            comp_rx: (slots > 0).then_some(comp_rx),
            handles,
            free: (0..slots).collect(),
            inflight: 0,
            readers: HashMap::new(),
            writers: HashMap::new(),
            doorbell,
            next_seq: 0,
            cfg,
            submitted_ctr,
            completed_ctr,
            hazard_wait_ctr,
            window_wait_ctr,
            doorbell_ctr,
        })
    }

    /// Window this client was built with.
    pub fn window(&self) -> usize {
        self.cfg.window
    }

    /// Submit a PUT. Returns every completion reaped while making room
    /// (possibly none).
    pub fn submit_put(&mut self, key: &[u8], value: &[u8]) -> Vec<OpCompletion> {
        self.submit(OpKind::Put, key, value.to_vec())
    }

    /// Submit a GET.
    pub fn submit_get(&mut self, key: &[u8]) -> Vec<OpCompletion> {
        self.submit(OpKind::Get, key, Vec::new())
    }

    /// Submit a DEL.
    pub fn submit_del(&mut self, key: &[u8]) -> Vec<OpCompletion> {
        self.submit(OpKind::Del, key, Vec::new())
    }

    /// Submit a multi-key atomic transaction (an all-or-nothing PUT
    /// batch). The transaction is hazard-ordered against *every* key in
    /// its write set — it waits for all in-flight readers and writers of
    /// those keys, and later operations on any of them wait for it — so
    /// transactions compose with the K-in-flight window without reordering
    /// conflicting effects.
    pub fn submit_txn(&mut self, puts: &[(Vec<u8>, Vec<u8>)]) -> Vec<OpCompletion> {
        let key = puts.first().map(|(k, _)| k.clone()).unwrap_or_default();
        self.submit_inner(OpKind::Txn, key, Vec::new(), puts.to_vec())
    }

    fn submit(&mut self, kind: OpKind, key: &[u8], value: Vec<u8>) -> Vec<OpCompletion> {
        self.submit_inner(kind, key.to_vec(), value, Vec::new())
    }

    fn submit_inner(
        &mut self,
        kind: OpKind,
        key: Vec<u8>,
        value: Vec<u8>,
        puts: Vec<(Vec<u8>, Vec<u8>)>,
    ) -> Vec<OpCompletion> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.submitted_ctr.inc();
        let submitted_at = sim::now();
        if let Some(sync) = &self.sync {
            // Serial fast path: execute inline, op for op like the plain
            // client — no doorbell charge, no slot machinery.
            let (result, commit_ts) = run_op(sync, kind, &key, &value, &puts);
            self.completed_ctr.inc();
            return vec![OpCompletion {
                seq,
                kind,
                key,
                txn_keys: puts.into_iter().map(|(k, _)| k).collect(),
                submitted_at,
                done_at: sim::now(),
                result,
                commit_ts,
            }];
        }
        let mut reaped = self.reap_ready();
        // Block (reaping) until a slot is free *and* the key is hazard-
        // clear: writers exclude everything on the key, readers exclude
        // only writers. This keeps per-key effect order equal to program
        // order, so the final store state matches serial execution.
        loop {
            if self.free.is_empty() {
                self.window_wait_ctr.inc();
            } else if self.hazard(kind, &key, &puts) {
                self.hazard_wait_ctr.inc();
            } else {
                break;
            }
            reaped.push(self.reap_blocking());
        }
        let slot = *self.free.iter().next().expect("free slot");
        self.free.remove(&slot);
        self.inflight += 1;
        match kind {
            OpKind::Put | OpKind::Del => {
                *self.writers.entry(key.clone()).or_insert(0) += 1;
            }
            OpKind::Get => {
                *self.readers.entry(key.clone()).or_insert(0) += 1;
            }
            OpKind::Txn => {
                for (k, _) in &puts {
                    *self.writers.entry(k.clone()).or_insert(0) += 1;
                }
            }
        }
        // Posting the work request: one doorbell chain across up to
        // `doorbell_batch` submissions. The dispatch span runs under the
        // op's attribution scope so the post shows up in its breakdown.
        let op = self.cfg.client.obs.next_op_id();
        let scope = OpScope::enter(op);
        self.doorbell.charge();
        self.doorbell_ctr.inc();
        let sp = self
            .cfg
            .client
            .obs
            .tracer
            .span(Subsystem::Client, "pipeline_dispatch");
        drop(sp);
        drop(scope);
        self.job_txs[slot]
            .send(
                Job::Op {
                    seq,
                    op,
                    kind,
                    key,
                    value,
                    puts,
                    submitted_at,
                },
                0,
            )
            .expect("pipeline slot hung up");
        reaped
    }

    fn hazard(&self, kind: OpKind, key: &[u8], puts: &[(Vec<u8>, Vec<u8>)]) -> bool {
        let write_blocked = |k: &[u8]| {
            self.writers.get(k).copied().unwrap_or(0) > 0
                || self.readers.get(k).copied().unwrap_or(0) > 0
        };
        match kind {
            OpKind::Put | OpKind::Del => write_blocked(key),
            OpKind::Get => self.writers.get(key).copied().unwrap_or(0) > 0,
            // A transaction writes its whole set: every key must be clear.
            OpKind::Txn => puts.iter().any(|(k, _)| write_blocked(k)),
        }
    }

    fn note_done(&mut self, done: &SlotDone) {
        self.free.insert(done.slot);
        self.inflight -= 1;
        self.completed_ctr.inc();
        fn dec(book: &mut HashMap<Vec<u8>, usize>, key: &[u8]) {
            match book.get_mut(key) {
                Some(n) if *n > 1 => *n -= 1,
                Some(_) => {
                    book.remove(key);
                }
                None => unreachable!("completion for untracked key"),
            }
        }
        match done.completion.kind {
            OpKind::Put | OpKind::Del => dec(&mut self.writers, &done.completion.key),
            OpKind::Get => dec(&mut self.readers, &done.completion.key),
            OpKind::Txn => {
                for k in &done.completion.txn_keys {
                    dec(&mut self.writers, k);
                }
            }
        }
    }

    /// Drain every completion that is already available, without blocking.
    fn reap_ready(&mut self) -> Vec<OpCompletion> {
        let mut dones = Vec::new();
        if let Some(rx) = &self.comp_rx {
            while let Ok(done) = rx.try_recv() {
                dones.push(done);
            }
        }
        dones
            .into_iter()
            .map(|done| {
                self.note_done(&done);
                done.completion
            })
            .collect()
    }

    /// Block for the next completion.
    fn reap_blocking(&mut self) -> OpCompletion {
        let done = self
            .comp_rx
            .as_ref()
            .expect("pipelined mode")
            .recv()
            .expect("pipeline slots gone");
        self.note_done(&done);
        done.completion
    }

    /// Wait for every in-flight operation to finish.
    pub fn drain(&mut self) -> Vec<OpCompletion> {
        let mut out = self.reap_ready();
        while self.inflight > 0 {
            out.push(self.reap_blocking());
        }
        out
    }

    /// Drain, stop every slot, and join their processes. Returns the
    /// completions reaped during the final drain.
    pub fn finish(mut self) -> Vec<OpCompletion> {
        let out = self.drain();
        for tx in &self.job_txs {
            let _ = tx.send(Job::Shutdown, 0);
        }
        for h in self.handles.drain(..) {
            h.join();
        }
        out
    }
}

/// Execute one operation on a slot's client. PUTs ride out transient
/// `NoSpace`/`Busy` rejections ([`RemoteKv::kv_put_patient`]) — the stall
/// is part of the operation's latency.
fn run_op(
    client: &StoreClient,
    kind: OpKind,
    key: &[u8],
    value: &[u8],
    puts: &[(Vec<u8>, Vec<u8>)],
) -> (Result<Option<Vec<u8>>, StoreError>, Option<u64>) {
    let result = match kind {
        OpKind::Put => client.kv_put_patient(key, value).map(|()| None),
        OpKind::Get => client.get(key),
        OpKind::Del => client.del(key).map(|()| None),
        OpKind::Txn => {
            // Conflicts join the transient-rejection retry set: the hazard
            // bookkeeping serializes this client's own conflicting ops, but
            // other clients' transactions can still collide with ours.
            let mut tries = 0;
            loop {
                match client.txn_put_all(puts) {
                    Ok(ts) => return (Ok(None), Some(ts)),
                    Err(StoreError::Status(Status::NoSpace | Status::Busy | Status::Conflict))
                        if tries < 200 =>
                    {
                        tries += 1;
                        sim::sleep(sim::micros(50));
                    }
                    Err(e) => return (Err(e), None),
                }
            }
        }
    };
    (result, None)
}
