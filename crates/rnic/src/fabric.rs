//! Nodes, memory regions, listeners, and queue pairs.
//!
//! Faithfulness notes (the semantics the paper's designs depend on):
//!
//! * **One-sided RDMA write has no durability semantics.** The DMA applies
//!   into the target pool's *working* image (volatile domain) at the virtual
//!   instant the last byte arrives; the ack the client unblocks on only
//!   means "NIC received". Nothing reaches media until somebody flushes.
//! * **The server is unaware of one-sided completions.** No event reaches
//!   the listener for plain `rdma_write`/`rdma_read`; only `send` and
//!   `rdma_write_imm` do.
//! * **Crashes tear in-flight writes.** If the target crashes mid-transfer,
//!   the prefix of whole cache lines that had streamed in by the crash
//!   instant lands in the working image and then takes part in the pool's
//!   crash resolution (so an unflushed prefix still usually dies — unless
//!   the crash spec lets dirty lines survive, modeling cache eviction).
//! * **Simplification:** a DMA write becomes visible to *reads* atomically
//!   at its completion instant rather than line-by-line during the
//!   transfer. Concurrent readers therefore observe old-or-new per write
//!   while the destination is live; partially-visible states still arise
//!   from crashes and from multi-write objects. The stores' integrity
//!   machinery (CRC + durability flag) is exercised by both.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use efactory_pmem::{CrashSpec, PmemPool, LINE};
use efactory_sim as sim;
use efactory_sim::Nanos;
use parking_lot::Mutex;
use rand::{Rng, SeedableRng};

use crate::cost::CostModel;
use crate::fault::{Fate, FaultPlan, FaultTable};

/// Identifier of a queue pair (one per client connection).
pub type QpId = u64;
/// Identifier of a fabric node.
pub type NodeId = usize;

/// Errors surfaced by fabric operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpError {
    /// The local or remote node has crashed; the operation got no ack.
    Crashed,
    /// The peer endpoint is gone (its process exited or it restarted).
    Disconnected,
    /// An RPC reply did not arrive before the deadline.
    Timeout,
    /// rkey/bounds check failed on a one-sided access.
    AccessViolation,
    /// `connect` found no listener on the target node.
    NotListening,
}

impl std::fmt::Display for QpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            QpError::Crashed => "node crashed",
            QpError::Disconnected => "peer disconnected",
            QpError::Timeout => "rpc timeout",
            QpError::AccessViolation => "remote access violation",
            QpError::NotListening => "no listener on target node",
        };
        f.write_str(s)
    }
}

impl std::error::Error for QpError {}

/// A message surfaced to a [`Listener`].
#[derive(Debug)]
pub enum Incoming {
    /// Two-sided send (the request half of a SEND-based RPC).
    Send {
        /// Originating queue pair (use with [`Listener::reply`]).
        from: QpId,
        /// Request payload.
        payload: Vec<u8>,
    },
    /// Completion notification of an `rdma_write_imm`: the payload has
    /// already been DMA'd into the registered region; the server learns
    /// `imm` and the length.
    WriteImm {
        /// Originating queue pair.
        from: QpId,
        /// The 32-bit immediate carried with the write.
        imm: u32,
        /// Bytes written.
        len: usize,
    },
}

/// Descriptor a client uses for one-sided access to a registered region.
/// Obtained out-of-band (the stores hand it to clients at connection setup,
/// as the paper's servers do at initialization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteMr {
    node: NodeId,
    index: usize,
    rkey: u64,
    /// Region length in bytes; one-sided offsets are relative to the region.
    pub len: usize,
}

struct MrEntry {
    rkey: u64,
    pool: Arc<PmemPool>,
    base: usize,
    len: usize,
}

/// An in-flight one-sided write, tracked so a crash can tear it.
struct Inflight {
    pool: Arc<PmemPool>,
    abs_off: usize,
    data: Arc<Vec<u8>>,
    /// Virtual time the first byte reaches the target memory system.
    t_first: Nanos,
    /// Virtual time the last byte lands (the apply instant).
    t_last: Nanos,
}

/// Per-connection server→client channels: RPC replies plus an asynchronous
/// event stream (unsolicited notifications, e.g. "log cleaning started").
struct ConnTx {
    reply: sim::Sender<Vec<u8>>,
    event: sim::Sender<Vec<u8>>,
    /// The client node at the other end (for per-link fault lookup on the
    /// reply path).
    peer: NodeId,
}

struct ListenerCore {
    tx: sim::Sender<Incoming>,
    conns: Arc<Mutex<HashMap<QpId, ConnTx>>>,
}

/// Fabric-wide operation counters (virtual hardware telemetry).
#[derive(Debug, Default)]
pub struct FabricStats {
    /// Two-sided sends (requests + replies).
    pub sends: AtomicU64,
    /// One-sided reads.
    pub rdma_reads: AtomicU64,
    /// One-sided writes (including write-with-imm).
    pub rdma_writes: AtomicU64,
    /// Payload bytes moved by all verbs.
    pub bytes_on_wire: AtomicU64,
    /// Node crashes injected (via [`Fabric::crash_node`] or
    /// [`Fabric::schedule_crash`]).
    pub crashes: AtomicU64,
    /// Two-sided messages swallowed by an armed [`FaultPlan`].
    pub fault_dropped: AtomicU64,
    /// Two-sided messages delivered twice by an armed [`FaultPlan`].
    pub fault_duplicated: AtomicU64,
    /// Messages (any verb) that took a fault-injected extra delay.
    pub fault_delayed: AtomicU64,
    /// One-sided packets lost and retransmitted by the (reliable-transport)
    /// NIC — surfaces as latency, never as an error.
    pub fault_retrans: AtomicU64,
    /// Optional verb-completion hook (see [`Fabric::set_verb_probe`]).
    pub probe: VerbProbe,
}

type VerbProbeFn = Box<dyn Fn(&'static str, usize, Nanos, Nanos) + Send + Sync>;

/// An optional callback fired on every verb the fabric issues, with the
/// verb name (`"send"`, `"rdma_read"`, `"rdma_write"`),
/// the payload length, and the verb's virtual `[start, end)` window — for
/// two-sided sends the window is issue → nominal arrival, for one-sided
/// verbs it is issue → ack (including fault retransmit/delay time). Lets
/// an observability layer record NIC completions without this crate
/// depending on it. Unset by default (zero overhead beyond one mutex probe
/// per verb).
pub struct VerbProbe(Mutex<Option<VerbProbeFn>>);

impl Default for VerbProbe {
    fn default() -> Self {
        VerbProbe(Mutex::new(None))
    }
}

/// Probe timestamps come from the virtual clock; records emitted from
/// outside a simulated process are stamped 0, matching the tracer.
fn probe_now() -> Nanos {
    efactory_sim::try_now().unwrap_or(0)
}

impl VerbProbe {
    /// Install the callback (replacing any previous one).
    pub fn set(&self, f: impl Fn(&'static str, usize, Nanos, Nanos) + Send + Sync + 'static) {
        *self.0.lock() = Some(Box::new(f));
    }

    fn fire(&self, verb: &'static str, bytes: usize, start: Nanos, end: Nanos) {
        if let Some(f) = self.0.lock().as_ref() {
            f(verb, bytes, start, end);
        }
    }
}

impl std::fmt::Debug for VerbProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let set = self.0.lock().is_some();
        write!(f, "VerbProbe({})", if set { "set" } else { "unset" })
    }
}

pub(crate) struct NodeInner {
    id: NodeId,
    name: String,
    crashed: AtomicBool,
    /// Bumped on every crash; in-flight DMA applies check it.
    epoch: AtomicU64,
    mrs: Mutex<Vec<MrEntry>>,
    listener: Mutex<Option<ListenerCore>>,
    inflight: Mutex<HashMap<u64, Inflight>>,
    next_inflight: AtomicU64,
}

/// A machine on the fabric. Server nodes register memory regions and listen;
/// client nodes connect.
#[derive(Clone)]
pub struct Node {
    inner: Arc<NodeInner>,
}

impl Node {
    /// Node id.
    pub fn id(&self) -> NodeId {
        self.inner.id
    }

    /// Node name (diagnostics).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Whether the node is currently crashed.
    pub fn is_crashed(&self) -> bool {
        self.inner.crashed.load(Ordering::Relaxed)
    }

    /// Crash epoch: bumped on every crash, never reset. Server processes
    /// capture it at startup and exit when it changes — so a process that
    /// slept across a crash+restart window cannot resurrect and act on a
    /// rebooted node's state.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Relaxed)
    }

    /// Fail the operation if this node has crashed. Server code calls this
    /// before acting on a request so a "ghost" process (one that was parked
    /// when the crash hit) cannot mutate post-crash state.
    pub fn guard(&self) -> Result<(), QpError> {
        if self.is_crashed() {
            Err(QpError::Crashed)
        } else {
            Ok(())
        }
    }

    /// Register `[base, base+len)` of `pool` for remote one-sided access.
    pub fn register_mr(&self, pool: &Arc<PmemPool>, base: usize, len: usize) -> RemoteMr {
        assert!(base + len <= pool.len(), "MR outside pool");
        let mut mrs = self.inner.mrs.lock();
        let index = mrs.len();
        // rkey derivation is arbitrary but unique per registration.
        let rkey = 0x9E37_79B9_7F4A_7C15u64
            .wrapping_mul(index as u64 + 1)
            .wrapping_add(self.inner.id as u64);
        mrs.push(MrEntry {
            rkey,
            pool: Arc::clone(pool),
            base,
            len,
        });
        RemoteMr {
            node: self.inner.id,
            index,
            rkey,
            len,
        }
    }

    /// Start listening for connections. Must be called from within a
    /// simulated process (it allocates simulation channels). Replaces any
    /// previous listener (e.g. after [`Fabric::restart_node`]).
    ///
    /// `batched_recv` selects the batched receive-region ring (eFactory's
    /// optimization; cheaper per-message receive posting).
    pub fn listen(&self, fabric: &Fabric, batched_recv: bool) -> Listener {
        self.listen_with(fabric, batched_recv, 0)
    }

    /// Like [`listen`](Self::listen), with doorbell batching of the
    /// receive-ring refill: `doorbell_batch > 1` posts recv WRs in chains
    /// of that length, so one doorbell (the full `cpu_recv_post_ns` MMIO
    /// charge) covers the first WR and each chained WR costs only
    /// `cpu_recv_post_batched_ns`. The chain is charged when the ring is
    /// refilled — every `doorbell_batch`-th receive. `doorbell_batch <= 1`
    /// keeps the flat per-message charge selected by `batched_recv`.
    pub fn listen_with(
        &self,
        fabric: &Fabric,
        batched_recv: bool,
        doorbell_batch: usize,
    ) -> Listener {
        let (tx, rx) = sim::channel::<Incoming>();
        let conns = Arc::new(Mutex::new(HashMap::new()));
        *self.inner.listener.lock() = Some(ListenerCore {
            tx,
            conns: Arc::clone(&conns),
        });
        Listener {
            replier: Replier {
                node: self.clone(),
                cost: fabric.cost.clone(),
                stats: Arc::clone(&fabric.stats),
                faults: Arc::clone(&fabric.faults),
                conns,
            },
            rx,
            ring: DoorbellChain::recv(&fabric.cost, batched_recv, doorbell_batch),
        }
    }
}

/// Canonical (unordered) key for the link between two nodes.
fn link_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    (a.min(b), a.max(b))
}

/// The network: creates nodes, connects queue pairs, injects crashes.
pub struct Fabric {
    cost: CostModel,
    stats: Arc<FabricStats>,
    nodes: Mutex<Vec<Arc<NodeInner>>>,
    /// Links currently partitioned (see [`Fabric::fail_link`]). Shared with
    /// every `ClientQp` so faults injected mid-run affect live connections.
    links_down: Arc<Mutex<HashSet<(NodeId, NodeId)>>>,
    /// QP id source. Per-fabric (not a process-global) so ids are
    /// deterministic per run — they appear in trace span args, and a
    /// counter shared across runs would break byte-identical replays.
    next_qp: AtomicU64,
    /// Armed probabilistic fault plans (see [`Fabric::set_fault_plan`]).
    /// Shared with every endpoint, like `links_down`.
    faults: Arc<FaultTable>,
}

/// Draw the fate of a two-sided message about to be queued. Returns the
/// (possibly delayed) propagation time and whether to enqueue a duplicate
/// copy, or `None` when the message is dropped on the wire.
fn two_sided_fate(
    faults: &FaultTable,
    stats: &FabricStats,
    a: NodeId,
    b: NodeId,
    delay: Nanos,
) -> Option<(Nanos, bool)> {
    match faults.draw(a, b) {
        Fate::Deliver => Some((delay, false)),
        Fate::Drop => {
            stats.fault_dropped.fetch_add(1, Ordering::Relaxed);
            None
        }
        Fate::Duplicate => {
            stats.fault_duplicated.fetch_add(1, Ordering::Relaxed);
            Some((delay, true))
        }
        Fate::Delay(extra) => {
            stats.fault_delayed.fetch_add(1, Ordering::Relaxed);
            Some((delay + extra, false))
        }
    }
}

impl Fabric {
    /// A fabric with the given cost model.
    pub fn new(cost: CostModel) -> Arc<Fabric> {
        Arc::new(Fabric {
            cost,
            stats: Arc::new(FabricStats::default()),
            nodes: Mutex::new(Vec::new()),
            links_down: Arc::new(Mutex::new(HashSet::new())),
            next_qp: AtomicU64::new(1),
            faults: Arc::new(FaultTable::default()),
        })
    }

    /// The cost model in effect.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Operation counters.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// Install a verb-completion probe: `f(verb, payload_len, start, end)`
    /// runs inline on every send / one-sided verb issued over this fabric.
    pub fn set_verb_probe(
        &self,
        f: impl Fn(&'static str, usize, Nanos, Nanos) + Send + Sync + 'static,
    ) {
        self.stats.probe.set(f);
    }

    /// Add a machine to the fabric.
    pub fn add_node(&self, name: &str) -> Node {
        let mut nodes = self.nodes.lock();
        let id = nodes.len();
        let inner = Arc::new(NodeInner {
            id,
            name: name.to_string(),
            crashed: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            mrs: Mutex::new(Vec::new()),
            listener: Mutex::new(None),
            inflight: Mutex::new(HashMap::new()),
            next_inflight: AtomicU64::new(0),
        });
        nodes.push(Arc::clone(&inner));
        Node { inner }
    }

    /// Connect `local` to the listener on `remote`. Must be called from
    /// within a simulated process.
    pub fn connect(&self, local: &Node, remote: &Node) -> Result<ClientQp, QpError> {
        if local.is_crashed() || remote.is_crashed() {
            return Err(QpError::Crashed);
        }
        let listener = remote.inner.listener.lock();
        let core = listener.as_ref().ok_or(QpError::NotListening)?;
        let id = self.next_qp.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = sim::channel::<Vec<u8>>();
        let (event_tx, event_rx) = sim::channel::<Vec<u8>>();
        core.conns.lock().insert(
            id,
            ConnTx {
                reply: reply_tx,
                event: event_tx,
                peer: local.id(),
            },
        );
        Ok(ClientQp {
            id,
            cost: self.cost.clone(),
            stats: Arc::clone(&self.stats),
            local: local.clone(),
            remote: remote.clone(),
            links_down: Arc::clone(&self.links_down),
            faults: Arc::clone(&self.faults),
            tx: core.tx.clone(),
            conns: Arc::downgrade(&core.conns),
            rx: reply_rx,
            events: event_rx,
        })
    }

    /// Power-fail `node` at the current virtual instant (call from a
    /// controller process): in-flight DMA writes tear at cache-line
    /// granularity, every pool registered on the node resolves its dirty
    /// lines per `spec`, and all endpoints stop acking.
    pub fn crash_node<R: Rng>(&self, node: &Node, spec: CrashSpec, rng: &mut R) {
        let t_crash = sim::now();
        node.inner.crashed.store(true, Ordering::Relaxed);
        node.inner.epoch.fetch_add(1, Ordering::Relaxed);
        self.stats.crashes.fetch_add(1, Ordering::Relaxed);
        // Tear in-flight writes: the whole-line prefix that streamed in
        // before the crash lands in the working image (and is then subject
        // to the pool's crash resolution, like any other unflushed data).
        let inflight: Vec<Inflight> = node.inner.inflight.lock().drain().map(|(_, v)| v).collect();
        for w in &inflight {
            let arrived = if t_crash <= w.t_first {
                0
            } else if t_crash >= w.t_last || w.t_last == w.t_first {
                w.data.len()
            } else {
                let frac = (t_crash - w.t_first) as u128 * w.data.len() as u128
                    / (w.t_last - w.t_first) as u128;
                // Whole cache lines only, relative to the write's start.
                (frac as usize / LINE) * LINE
            };
            if arrived > 0 {
                w.pool.write(w.abs_off, &w.data[..arrived]);
            }
        }
        // Crash every distinct pool registered on this node.
        let mrs = node.inner.mrs.lock();
        let mut seen: Vec<*const PmemPool> = Vec::new();
        for mr in mrs.iter() {
            let ptr = Arc::as_ptr(&mr.pool);
            if !seen.contains(&ptr) {
                seen.push(ptr);
                mr.pool.crash(spec, rng);
            }
        }
    }

    /// Bring a crashed node back up (reboot). Memory registrations and the
    /// listener are gone — recovery code re-registers and re-listens, and
    /// clients must reconnect.
    pub fn restart_node(&self, node: &Node) {
        node.inner.mrs.lock().clear();
        *node.inner.listener.lock() = None;
        node.inner.inflight.lock().clear();
        node.inner.crashed.store(false, Ordering::Relaxed);
    }

    /// Schedule a deterministic power-failure of `node` at absolute virtual
    /// instant `at`. Must be called from within a simulated process. The
    /// crash runs exactly like [`crash_node`](Self::crash_node), with an RNG
    /// seeded from `seed` at fire time — so the same `(at, spec, seed)`
    /// triple tears the same cache lines on every run.
    pub fn schedule_crash(self: &Arc<Self>, node: &Node, at: Nanos, spec: CrashSpec, seed: u64) {
        let fabric = Arc::clone(self);
        let name = format!("crash-controller-{}", node.name());
        let node = node.clone();
        sim::spawn(&name, move || {
            sim::sleep_until(at);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            fabric.crash_node(&node, spec, &mut rng);
        });
    }

    /// Partition the (bidirectional) link between `a` and `b`: requests a
    /// client issues across the cut are silently swallowed, so SEND-based
    /// RPCs run into their deadline and one-sided verbs report `Timeout`
    /// after a wasted round trip — the failure mode a real lossy fabric
    /// presents to the requester. Enforced at the client endpoint (the
    /// requester's view of the partition); both nodes stay alive.
    pub fn fail_link(&self, a: &Node, b: &Node) {
        self.links_down.lock().insert(link_key(a.id(), b.id()));
    }

    /// Heal a partition created by [`fail_link`](Self::fail_link).
    pub fn heal_link(&self, a: &Node, b: &Node) {
        self.links_down.lock().remove(&link_key(a.id(), b.id()));
    }

    /// Number of links currently partitioned by [`fail_link`](Self::fail_link).
    pub fn links_down_count(&self) -> usize {
        self.links_down.lock().len()
    }

    /// Install (or clear, with `None`) a fabric-wide default [`FaultPlan`]:
    /// every two-sided message on every link without a per-link override
    /// draws a fate from it. Affects live connections immediately; the
    /// injected faults are counted under the `fault_*` fields of
    /// [`FabricStats`].
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        self.faults.set_default(plan);
    }

    /// Arm the (bidirectional) `a`–`b` link with its own [`FaultPlan`],
    /// overriding any fabric-wide default on that link.
    pub fn set_link_fault(&self, a: &Node, b: &Node, plan: FaultPlan) {
        self.faults.set_link(a.id(), b.id(), plan);
    }

    /// Disarm a per-link plan installed by
    /// [`set_link_fault`](Self::set_link_fault); the link falls back to the
    /// fabric-wide default, if any.
    pub fn clear_link_fault(&self, a: &Node, b: &Node) {
        self.faults.clear_link(a.id(), b.id());
    }
}

/// Server-side receive endpoint: surfaces incoming sends and write-imm
/// completions, and replies to clients by queue-pair id.
pub struct Listener {
    /// The listener's own reply path; [`replier`](Self::replier) hands out
    /// clones.
    replier: Replier,
    rx: sim::Receiver<Incoming>,
    /// Receive-ring refills, charged per consumed message.
    ring: DoorbellChain,
}

impl Listener {
    /// Node this listener runs on.
    pub fn node(&self) -> &Node {
        &self.replier.node
    }

    /// Block until a message arrives. Charges the per-message receive-post
    /// CPU cost. Returns `Disconnected` when every client sender is gone.
    pub fn recv(&self) -> Result<Incoming, QpError> {
        let msg = self.rx.recv().map_err(|_| QpError::Disconnected)?;
        self.node().guard()?;
        self.ring.charge();
        Ok(msg)
    }

    /// Like [`recv`](Self::recv) with an absolute virtual-time deadline.
    pub fn recv_deadline(&self, deadline: Nanos) -> Result<Incoming, QpError> {
        let msg = self.rx.recv_deadline(deadline).map_err(|e| match e {
            sim::RecvTimeoutError::Timeout => QpError::Timeout,
            sim::RecvTimeoutError::Disconnected => QpError::Disconnected,
        })?;
        self.node().guard()?;
        self.ring.charge();
        Ok(msg)
    }

    /// Send a reply to the client behind `qp`.
    pub fn reply(&self, qp: QpId, payload: Vec<u8>) -> Result<(), QpError> {
        self.replier.reply(qp, payload)
    }

    /// A shareable handle that can push events to this listener's clients
    /// from another process (e.g. the log-cleaning process notifying
    /// clients while the request handler owns the `Listener`).
    pub fn notifier(&self) -> Notifier {
        let r = &self.replier;
        Notifier {
            node: r.node.clone(),
            cost: r.cost.clone(),
            conns: Arc::clone(&r.conns),
        }
    }

    /// A shareable handle that can send replies from another process (e.g.
    /// a completion-handling worker that offloads flush work from the
    /// dispatch thread, as multi-core RDMA servers do).
    pub fn replier(&self) -> Replier {
        self.replier.clone()
    }
}

/// Reply handle detached from the [`Listener`]; see [`Listener::replier`].
#[derive(Clone)]
pub struct Replier {
    node: Node,
    cost: CostModel,
    stats: Arc<FabricStats>,
    faults: Arc<FaultTable>,
    conns: Arc<Mutex<HashMap<QpId, ConnTx>>>,
}

impl Replier {
    /// Send a reply to the client behind `qp`.
    pub fn reply(&self, qp: QpId, payload: Vec<u8>) -> Result<(), QpError> {
        self.node.guard()?;
        let delay = self.cost.one_way(payload.len());
        self.stats.sends.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_on_wire
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        let now = probe_now();
        self.stats
            .probe
            .fire("send", payload.len(), now, now + delay);
        let conns = self.conns.lock();
        let tx = conns.get(&qp).ok_or(QpError::Disconnected)?;
        let Some((delay, dup)) =
            two_sided_fate(&self.faults, &self.stats, self.node.id(), tx.peer, delay)
        else {
            // Reply lost on the wire: the client's RPC deadline fires and
            // its retry (same request id) gets the deduped resend.
            return Ok(());
        };
        if dup {
            let _ = tx.reply.send(payload.clone(), delay);
        }
        tx.reply
            .send(payload, delay)
            .map_err(|_| QpError::Disconnected)
    }
}

/// Event-broadcast handle detached from the [`Listener`]; see
/// [`Listener::notifier`].
#[derive(Clone)]
pub struct Notifier {
    node: Node,
    cost: CostModel,
    conns: Arc<Mutex<HashMap<QpId, ConnTx>>>,
}

impl Notifier {
    /// Broadcast an event to every connected client.
    pub fn notify_all(&self, payload: &[u8]) -> Result<(), QpError> {
        self.node.guard()?;
        let delay = self.cost.one_way(payload.len());
        for tx in self.conns.lock().values() {
            let _ = tx.event.send(payload.to_vec(), delay);
        }
        Ok(())
    }
}

/// A chain of work-request posts behind one doorbell: a [`Listener`]'s
/// receive-ring refills and a pipelined client's send posts. The first
/// post of a chain pays the doorbell MMIO plus the amortized rate for each
/// chained post, and the rest of the chain posts for free until the credit
/// runs out. A chain of `len <= 1` pays the flat per-post charge instead.
/// This is purely a CPU-cost account — the verbs themselves go out as
/// usual.
pub struct DoorbellChain {
    len: usize,
    /// What ringing one chain of `len` posts costs.
    chain: Nanos,
    /// What one post costs unchained.
    flat: Nanos,
    /// Posts left in the last chain rung.
    credit: std::cell::Cell<usize>,
}

impl DoorbellChain {
    /// Send posts: chains of `batch` send WQEs (MMIO `cpu_send_post_ns`,
    /// `cpu_send_post_batched_ns` per chained WQE), `cpu_send_post_ns` flat.
    pub fn send(cost: &CostModel, batch: usize) -> DoorbellChain {
        let (head, chained) = (cost.cpu_send_post_ns, cost.cpu_send_post_batched_ns);
        DoorbellChain::new(batch, head, chained, head)
    }

    /// Receive-ring refills: chains of `batch` recv WRs (MMIO
    /// `cpu_recv_post_ns`, `cpu_recv_post_batched_ns` per chained WR).
    /// Flat, the batched receive region (`batched`) posts each message at
    /// the amortized rate and the plain ring at the full one.
    fn recv(cost: &CostModel, batched: bool, batch: usize) -> DoorbellChain {
        let (head, chained) = (cost.cpu_recv_post_ns, cost.cpu_recv_post_batched_ns);
        DoorbellChain::new(batch, head, chained, if batched { chained } else { head })
    }

    fn new(len: usize, head: Nanos, chained: Nanos, flat: Nanos) -> DoorbellChain {
        DoorbellChain {
            len,
            chain: head + (len as Nanos).saturating_sub(1) * chained,
            flat,
            credit: std::cell::Cell::new(0),
        }
    }

    /// Chain length this doorbell was built with.
    pub fn batch(&self) -> usize {
        self.len
    }

    /// Charge the CPU cost of one post. Must run inside a simulated
    /// process (the charge advances that process's clock).
    pub fn charge(&self) {
        if self.len > 1 {
            let mut credit = self.credit.get();
            if credit == 0 {
                sim::work(self.chain);
                credit = self.len;
            }
            self.credit.set(credit - 1);
        } else {
            sim::work(self.flat);
        }
    }
}

/// Client-side endpoint: two-sided sends and one-sided verbs.
pub struct ClientQp {
    id: QpId,
    cost: CostModel,
    stats: Arc<FabricStats>,
    local: Node,
    remote: Node,
    links_down: Arc<Mutex<HashSet<(NodeId, NodeId)>>>,
    faults: Arc<FaultTable>,
    tx: sim::Sender<Incoming>,
    /// The listener's connection map this QP is entered in; dropping the
    /// QP removes its entry.
    conns: Weak<Mutex<HashMap<QpId, ConnTx>>>,
    rx: sim::Receiver<Vec<u8>>,
    events: sim::Receiver<Vec<u8>>,
}

impl Drop for ClientQp {
    fn drop(&mut self) {
        if let Some(conns) = self.conns.upgrade() {
            conns.lock().remove(&self.id);
        }
    }
}

impl std::fmt::Debug for ClientQp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientQp")
            .field("id", &self.id)
            .field("local", &self.local.name())
            .field("remote", &self.remote.name())
            .finish()
    }
}

impl ClientQp {
    /// Queue-pair id (what the server sees as `from`).
    pub fn id(&self) -> QpId {
        self.id
    }

    /// The fabric's cost model, for client-side CPU charges.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    fn guard_both(&self) -> Result<(), QpError> {
        self.local.guard()?;
        self.remote.guard()
    }

    /// True when the link to the remote is partitioned (see
    /// [`Fabric::fail_link`]).
    fn link_down(&self) -> bool {
        self.links_down
            .lock()
            .contains(&link_key(self.local.id(), self.remote.id()))
    }

    /// A one-sided verb across a partitioned link: the request leaves the
    /// NIC, vanishes, and the QP retries until it gives up — modeled as one
    /// wasted round trip ending in `Timeout`.
    fn one_sided_partition_timeout(&self) -> QpError {
        sim::sleep(self.cost.one_way(0) * 2);
        QpError::Timeout
    }

    /// Draw and apply a fault fate for a one-sided verb. RC transport
    /// retransmits lost packets in hardware, so a `Drop` draw costs one
    /// wasted round trip of latency (never an error or data loss); a
    /// `Delay` draw adds its extra latency; a `Duplicate` draw is absorbed
    /// by the responder NIC's sequence check (no observable effect).
    fn one_sided_fault(&self) {
        if let Some(extra) = self.one_sided_fault_delay() {
            sim::sleep(extra);
        }
    }

    /// The extra latency a one-sided verb's fault draw adds, counted but
    /// not yet waited out; `None` when the verb is delivered as usual.
    fn one_sided_fault_delay(&self) -> Option<Nanos> {
        match self.faults.draw(self.local.id(), self.remote.id()) {
            Fate::Deliver | Fate::Duplicate => None,
            Fate::Drop => {
                self.stats.fault_retrans.fetch_add(1, Ordering::Relaxed);
                Some(self.cost.one_way(0) * 2)
            }
            Fate::Delay(extra) => {
                self.stats.fault_delayed.fetch_add(1, Ordering::Relaxed);
                Some(extra)
            }
        }
    }

    /// Two-sided send of a request.
    pub fn send(&self, payload: Vec<u8>) -> Result<(), QpError> {
        self.guard_both()?;
        if self.link_down() {
            // The partition swallows the packet: the WQE completes locally
            // but nothing arrives, and the caller's RPC deadline converts
            // the silence into a Timeout.
            return Ok(());
        }
        let delay = self.cost.one_way(payload.len());
        self.stats.sends.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_on_wire
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        let now = probe_now();
        self.stats
            .probe
            .fire("send", payload.len(), now, now + delay);
        let Some((delay, dup)) = two_sided_fate(
            &self.faults,
            &self.stats,
            self.local.id(),
            self.remote.id(),
            delay,
        ) else {
            // Dropped on the wire: the WQE completed locally but nothing
            // arrives, exactly like a partition-swallowed packet.
            return Ok(());
        };
        if dup {
            let _ = self.tx.send(
                Incoming::Send {
                    from: self.id,
                    payload: payload.clone(),
                },
                delay,
            );
        }
        self.tx
            .send(
                Incoming::Send {
                    from: self.id,
                    payload,
                },
                delay,
            )
            .map_err(|_| QpError::Disconnected)
    }

    /// Reply receive with an absolute virtual-time deadline.
    pub fn recv_reply_deadline(&self, deadline: Nanos) -> Result<Vec<u8>, QpError> {
        self.rx.recv_deadline(deadline).map_err(|e| match e {
            sim::RecvTimeoutError::Timeout => QpError::Timeout,
            sim::RecvTimeoutError::Disconnected => QpError::Disconnected,
        })
    }

    /// Pop one pending server event (notification) if one has arrived.
    pub fn try_event(&self) -> Option<Vec<u8>> {
        self.events.try_recv().ok()
    }

    /// SEND-based RPC: send the request, wait for the reply (bounded by a
    /// generous virtual timeout so a server crash surfaces as an error
    /// instead of a hang).
    pub fn rpc(&self, payload: Vec<u8>) -> Result<Vec<u8>, QpError> {
        self.send(payload)?;
        // 100 virtual milliseconds: far beyond any legitimate service time.
        self.recv_reply_deadline(sim::now() + efactory_sim::millis(100))
    }

    fn resolve<'a>(
        &self,
        mrs: &'a [MrEntry],
        mr: &RemoteMr,
        off: usize,
        len: usize,
    ) -> Result<&'a MrEntry, QpError> {
        if mr.node != self.remote.inner.id {
            return Err(QpError::AccessViolation);
        }
        let entry = mrs.get(mr.index).ok_or(QpError::AccessViolation)?;
        if entry.rkey != mr.rkey || off.checked_add(len).is_none_or(|end| end > entry.len) {
            return Err(QpError::AccessViolation);
        }
        Ok(entry)
    }

    /// One-sided RDMA read of `[off, off+len)` within `mr`. The remote CPU
    /// is not involved. Costs a full round trip plus payload serialization.
    pub fn rdma_read(&self, mr: &RemoteMr, off: usize, len: usize) -> Result<Vec<u8>, QpError> {
        self.guard_both()?;
        if self.link_down() {
            return Err(self.one_sided_partition_timeout());
        }
        let start = probe_now();
        self.one_sided_fault();
        self.stats.rdma_reads.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_on_wire
            .fetch_add(len as u64, Ordering::Relaxed);
        // Request reaches the remote NIC.
        sim::sleep(self.cost.one_way(0));
        let data = self.read_remote(mr, off, len)?;
        // Response streams back.
        sim::sleep(self.cost.one_way(len));
        self.local.guard()?;
        self.stats.probe.fire("rdma_read", len, start, probe_now());
        Ok(data)
    }

    /// The bytes a read request takes from the remote node's memory when it
    /// reaches the remote NIC.
    fn read_remote(&self, mr: &RemoteMr, off: usize, len: usize) -> Result<Vec<u8>, QpError> {
        self.remote.guard()?;
        let mrs = self.remote.inner.mrs.lock();
        let entry = self.resolve(&mrs, mr, off, len)?;
        let mut buf = vec![0u8; len];
        entry.pool.read(entry.base + off, &mut buf);
        Ok(buf)
    }

    /// A batch of one-sided RDMA reads, each `(qp, mr, off, len)`, posted
    /// back to back and in flight together: the batch returns when its
    /// slowest read completes, one result per read in order. Every post
    /// after the first rides the first one's doorbell chain and charges
    /// `cpu_send_post_batched_ns`. Each read is otherwise the read
    /// [`rdma_read`](Self::rdma_read) issues on its own QP at its post
    /// instant: its own guards, partition check, fault draw and verb
    /// probe, its bytes sampled when its request reaches the remote NIC,
    /// and its own completion instant.
    pub fn rdma_read_all(
        reads: &[(&ClientQp, &RemoteMr, usize, usize)],
    ) -> Vec<Result<Vec<u8>, QpError>> {
        /// One read's window: posted at `start`, sampled at `arrive`,
        /// completed at `done`. `result` stays `Ok` and empty until the
        /// read is sampled, unless its post failed.
        struct Leg {
            start: Nanos,
            arrive: Nanos,
            done: Nanos,
            result: Result<Vec<u8>, QpError>,
        }
        let mut legs = Vec::with_capacity(reads.len());
        for (n, &(qp, _, _, len)) in reads.iter().enumerate() {
            if n > 0 {
                sim::work(qp.cost.cpu_send_post_batched_ns);
            }
            let start = sim::now();
            let mut leg = Leg {
                start,
                arrive: start,
                done: start,
                result: Ok(Vec::new()),
            };
            if let Err(e) = qp.guard_both() {
                leg.result = Err(e);
            } else if qp.link_down() {
                // One wasted round trip ending in `Timeout`.
                leg.done = start + qp.cost.one_way(0) * 2;
                leg.result = Err(QpError::Timeout);
            } else {
                leg.arrive = start + qp.one_sided_fault_delay().unwrap_or(0) + qp.cost.one_way(0);
                leg.done = leg.arrive + qp.cost.one_way(len);
                qp.stats.rdma_reads.fetch_add(1, Ordering::Relaxed);
                qp.stats
                    .bytes_on_wire
                    .fetch_add(len as u64, Ordering::Relaxed);
            }
            legs.push(leg);
        }
        // Sample each read's bytes as its request reaches the remote NIC,
        // in arrival order.
        let mut order: Vec<usize> = (0..legs.len())
            .filter(|&i| legs[i].result.is_ok())
            .collect();
        order.sort_by_key(|&i| (legs[i].arrive, i));
        for i in order {
            let (qp, mr, off, len) = reads[i];
            sim::sleep_until(legs[i].arrive);
            legs[i].result = qp.read_remote(mr, off, len);
        }
        let end = legs.iter().map(|l| l.done).max().unwrap_or_else(sim::now);
        sim::sleep_until(end);
        legs.into_iter()
            .zip(reads)
            .map(|(leg, &(qp, _, _, len))| {
                let data = leg.result?;
                qp.local.guard()?;
                qp.stats.probe.fire("rdma_read", len, leg.start, leg.done);
                Ok(data)
            })
            .collect()
    }

    /// One-sided RDMA write. Returns when the ack arrives — which, per RDMA
    /// semantics, only means the NIC received the data; the bytes sit in the
    /// volatile domain (working image) until someone flushes them.
    pub fn rdma_write(&self, mr: &RemoteMr, off: usize, data: Vec<u8>) -> Result<(), QpError> {
        self.one_sided_write(mr, off, data, None)
    }

    /// RDMA write-with-immediate: like [`rdma_write`](Self::rdma_write) but
    /// the remote listener receives a [`Incoming::WriteImm`] completion
    /// carrying `imm` at the instant the payload lands.
    pub fn rdma_write_imm(
        &self,
        mr: &RemoteMr,
        off: usize,
        data: Vec<u8>,
        imm: u32,
    ) -> Result<(), QpError> {
        self.one_sided_write(mr, off, data, Some(imm))
    }

    fn one_sided_write(
        &self,
        mr: &RemoteMr,
        off: usize,
        data: Vec<u8>,
        imm: Option<u32>,
    ) -> Result<(), QpError> {
        self.guard_both()?;
        if self.link_down() {
            return Err(self.one_sided_partition_timeout());
        }
        let start = probe_now();
        self.one_sided_fault();
        let len = data.len();
        self.stats.rdma_writes.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_on_wire
            .fetch_add(len as u64, Ordering::Relaxed);
        let (pool, abs_off) = {
            let mrs = self.remote.inner.mrs.lock();
            let entry = self.resolve(&mrs, mr, off, len)?;
            (Arc::clone(&entry.pool), entry.base + off)
        };
        let now = sim::now();
        let t_first = now + self.cost.one_way(0);
        let mut t_last = now + self.cost.one_way(len);
        if !self.cost.ddio_enabled {
            // DMA bypasses the cache and goes straight through the memory
            // controller — slower per byte.
            t_last += CostModel::per_kb_pub(self.cost.non_ddio_dma_ns_per_kb, len);
        }
        let t_last = t_last;
        let data = Arc::new(data);
        // Track as in-flight so a crash can tear it.
        let token = self
            .remote
            .inner
            .next_inflight
            .fetch_add(1, Ordering::Relaxed);
        self.remote.inner.inflight.lock().insert(
            token,
            Inflight {
                pool: Arc::clone(&pool),
                abs_off,
                data: Arc::clone(&data),
                t_first,
                t_last,
            },
        );
        let epoch0 = self.remote.inner.epoch.load(Ordering::Relaxed);
        let remote = Arc::clone(&self.remote.inner);
        let apply_data = Arc::clone(&data);
        let ddio = self.cost.ddio_enabled;
        sim::call_at(t_last, move || {
            // If the node crashed since issue, the crash handler already
            // applied the torn prefix and dropped the entry.
            if remote.epoch.load(Ordering::Relaxed) == epoch0
                && remote.inflight.lock().remove(&token).is_some()
            {
                pool.write(abs_off, &apply_data);
                if !ddio {
                    // Non-allocating DMA: the bytes land in media directly.
                    pool.flush(abs_off, apply_data.len());
                }
            }
        });
        if let Some(imm) = imm {
            // Completion surfaces at the listener exactly when the data has
            // landed.
            let _ = self.tx.send(
                Incoming::WriteImm {
                    from: self.id,
                    imm,
                    len,
                },
                t_last - now,
            );
        }
        // Ack back to the client.
        sim::sleep_until(t_last + self.cost.one_way(0));
        self.guard_both()?;
        self.stats.probe.fire("rdma_write", len, start, probe_now());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efactory_sim::{RunOutcome, Sim};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pool_mr(node: &Node, bytes: usize) -> (Arc<PmemPool>, RemoteMr) {
        let pool = Arc::new(PmemPool::new(bytes));
        let mr = node.register_mr(&pool, 0, bytes);
        (pool, mr)
    }

    #[test]
    fn rdma_read_round_trip_time_and_data() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new(CostModel::default());
        let server = fabric.add_node("server");
        let client = fabric.add_node("client");
        let (pool, mr) = pool_mr(&server, 4096);
        pool.write(100, b"remote data");
        let f = Arc::clone(&fabric);
        sim.spawn("server", {
            let server = server.clone();
            let f = Arc::clone(&fabric);
            move || {
                let _listener = server.listen(&f, true);
                sim::sleep(efactory_sim::millis(1));
            }
        });
        sim.spawn("client", move || {
            sim::yield_now(); // let the server listen first
            let qp = f.connect(&client, &server).unwrap();
            let t0 = sim::now();
            let data = qp.rdma_read(&mr, 100, 11).unwrap();
            assert_eq!(&data, b"remote data");
            let cost = CostModel::default();
            assert_eq!(sim::now() - t0, cost.one_way(0) + cost.one_way(11));
        });
        sim.run().expect_ok();
    }

    #[test]
    fn a_read_batch_overlaps_its_reads_and_ends_with_the_slowest() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new(CostModel::default());
        let (a, b) = (fabric.add_node("a"), fabric.add_node("b"));
        let client = fabric.add_node("client");
        let (pool_a, mr_a) = pool_mr(&a, 4096);
        let (pool_b, mr_b) = pool_mr(&b, 8192);
        pool_a.write(100, b"small");
        pool_b.write(0, &[7u8; 4096]);
        sim.spawn("main", move || {
            let _listeners = (a.listen(&fabric, true), b.listen(&fabric, true));
            let qa = fabric.connect(&client, &a).unwrap();
            let qb = fabric.connect(&client, &b).unwrap();
            let t0 = sim::now();
            let got = ClientQp::rdma_read_all(&[(&qa, &mr_a, 100, 5), (&qb, &mr_b, 0, 4096)]);
            assert_eq!(got[0].as_deref(), Ok(&b"small"[..]));
            assert_eq!(got[1].as_deref(), Ok(&[7u8; 4096][..]));
            // The second read leaves one chained post later and ends last;
            // serial reads would take both round trips.
            let cost = CostModel::default();
            let slowest = cost.cpu_send_post_batched_ns + cost.one_way(0) + cost.one_way(4096);
            assert_eq!(sim::now() - t0, slowest);
            assert_eq!(fabric.stats().rdma_reads.load(Ordering::Relaxed), 2);
            // An out-of-bounds read fails alone.
            let got = ClientQp::rdma_read_all(&[(&qa, &mr_a, 4090, 16), (&qb, &mr_b, 0, 1)]);
            assert_eq!(got[0], Err(QpError::AccessViolation));
            assert_eq!(got[1].as_deref(), Ok(&[7u8][..]));
        });
        sim.run().expect_ok();
    }

    #[test]
    fn dropped_qps_leave_the_listeners_connection_map() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new(CostModel::default());
        let server = fabric.add_node("server");
        let client = fabric.add_node("client");
        sim.spawn("main", move || {
            let _listener = server.listen(&fabric, true);
            let conns = || {
                let listener = server.inner.listener.lock();
                listener.as_ref().map_or(0, |core| core.conns.lock().len())
            };
            let kept = fabric.connect(&client, &server).unwrap();
            for _ in 0..100 {
                let redial = fabric.connect(&client, &server).unwrap();
                assert_eq!(conns(), 2);
                drop(redial);
            }
            assert_eq!(conns(), 1, "a re-dialed QP's entry outlived it");
            drop(kept);
            assert_eq!(conns(), 0);
        });
        sim.run().expect_ok();
    }

    #[test]
    fn rdma_write_lands_in_volatile_domain_only() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new(CostModel::default());
        let server = fabric.add_node("server");
        let client = fabric.add_node("client");
        let (pool, mr) = pool_mr(&server, 4096);
        let p2 = Arc::clone(&pool);
        let f = Arc::clone(&fabric);
        sim.spawn("server", {
            let server = server.clone();
            let f = Arc::clone(&fabric);
            move || {
                let _l = server.listen(&f, true);
                sim::sleep(efactory_sim::millis(1));
            }
        });
        sim.spawn("client", move || {
            sim::yield_now();
            let qp = f.connect(&client, &server).unwrap();
            qp.rdma_write(&mr, 0, b"not durable yet".to_vec()).unwrap();
            // Ack received — but the data must be dirty, not persisted.
            let mut buf = vec![0u8; 15];
            p2.read(0, &mut buf);
            assert_eq!(&buf, b"not durable yet");
            assert!(!p2.is_persisted(0, 15), "RDMA write must not persist");
        });
        sim.run().expect_ok();
    }

    #[test]
    fn write_imm_notifies_listener_at_landing_instant() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new(CostModel::default());
        let server = fabric.add_node("server");
        let client = fabric.add_node("client");
        let (_pool, mr) = pool_mr(&server, 4096);
        let f = Arc::clone(&fabric);
        let f2 = Arc::clone(&fabric);
        let server2 = server.clone();
        sim.spawn("server", move || {
            let l = server2.listen(&f2, false);
            match l.recv().unwrap() {
                Incoming::WriteImm { imm, len, .. } => {
                    assert_eq!(imm, 0xDEAD);
                    assert_eq!(len, 1024);
                    let cost = CostModel::default();
                    // Landed exactly at one_way(1024) after issue (t=0 area),
                    // plus the recv-post CPU charge.
                    assert_eq!(sim::now(), cost.one_way(1024) + cost.cpu_recv_post_ns);
                }
                other => panic!("expected WriteImm, got {other:?}"),
            }
        });
        sim.spawn("client", move || {
            sim::yield_now();
            let qp = f.connect(&client, &server).unwrap();
            qp.rdma_write_imm(&mr, 0, vec![7u8; 1024], 0xDEAD).unwrap();
        });
        sim.run().expect_ok();
    }

    #[test]
    fn doorbell_chain_amortizes_recv_post_cost() {
        // Four sends queued at the same arrival instant. Unbatched, each
        // recv charges the full post cost; with a doorbell chain of 4, one
        // refill (doorbell + 3 chained WRs) covers all four messages.
        let drain = |doorbell: usize| -> Nanos {
            let mut sim = Sim::new(0);
            let fabric = Fabric::new(CostModel::default());
            let server = fabric.add_node("server");
            let client = fabric.add_node("client");
            let out = Arc::new(AtomicU64::new(0));
            let out2 = Arc::clone(&out);
            let f = Arc::clone(&fabric);
            let f2 = Arc::clone(&fabric);
            let server2 = server.clone();
            sim.spawn("server", move || {
                let l = server2.listen_with(&f2, false, doorbell);
                let t0 = sim::now();
                for _ in 0..4 {
                    l.recv().unwrap();
                }
                out2.store(sim::now() - t0, Ordering::Relaxed);
            });
            sim.spawn("client", move || {
                sim::yield_now();
                let qp = f.connect(&client, &server).unwrap();
                for _ in 0..4 {
                    qp.send(vec![7u8; 16]).unwrap();
                }
            });
            sim.run().expect_ok();
            out.load(Ordering::Relaxed)
        };
        let cost = CostModel::default();
        let arrival = cost.one_way(16);
        // Flat charging: 4 x cpu_recv_post_ns after the last arrival.
        assert_eq!(drain(0), arrival + 4 * cost.cpu_recv_post_ns);
        // A chain of 1 is exactly the unbatched charge.
        assert_eq!(drain(1), arrival + 4 * cost.cpu_recv_post_ns);
        // A chain of 4: one doorbell + 3 chained WRs for all four recvs.
        assert_eq!(
            drain(4),
            arrival + cost.cpu_recv_post_ns + 3 * cost.cpu_recv_post_batched_ns
        );
    }

    #[test]
    fn send_rpc_reply_round_trip() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new(CostModel::default());
        let server = fabric.add_node("server");
        let client = fabric.add_node("client");
        let f = Arc::clone(&fabric);
        let f2 = Arc::clone(&fabric);
        let server2 = server.clone();
        sim.spawn("server", move || {
            let l = server2.listen(&f2, true);
            while let Ok(Incoming::Send { from, payload }) = l.recv() {
                let mut resp = payload;
                resp.reverse();
                l.reply(from, resp).unwrap();
            }
        });
        sim.spawn("client", move || {
            sim::yield_now();
            let qp = f.connect(&client, &server).unwrap();
            let resp = qp.rpc(vec![1, 2, 3]).unwrap();
            assert_eq!(resp, vec![3, 2, 1]);
        });
        sim.run().expect_ok();
    }

    #[test]
    fn access_violations_are_rejected() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new(CostModel::zero());
        let server = fabric.add_node("server");
        let client = fabric.add_node("client");
        let (_pool, mr) = pool_mr(&server, 4096);
        let f = Arc::clone(&fabric);
        sim.spawn("server", {
            let server = server.clone();
            let f = Arc::clone(&fabric);
            move || {
                let _l = server.listen(&f, true);
                sim::sleep(1_000);
            }
        });
        sim.spawn("client", move || {
            sim::yield_now();
            let qp = f.connect(&client, &server).unwrap();
            // Out of bounds.
            assert_eq!(
                qp.rdma_read(&mr, 4090, 100).unwrap_err(),
                QpError::AccessViolation
            );
            // Bad rkey.
            let forged = RemoteMr {
                rkey: mr.rkey ^ 1,
                ..mr
            };
            assert_eq!(
                qp.rdma_read(&forged, 0, 8).unwrap_err(),
                QpError::AccessViolation
            );
            // Write past the end.
            assert_eq!(
                qp.rdma_write(&mr, 4096, vec![0u8; 8]).unwrap_err(),
                QpError::AccessViolation
            );
        });
        sim.run().expect_ok();
    }

    #[test]
    fn connect_without_listener_fails() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new(CostModel::zero());
        let server = fabric.add_node("server");
        let client = fabric.add_node("client");
        let f = Arc::clone(&fabric);
        sim.spawn("client", move || {
            assert_eq!(
                f.connect(&client, &server).unwrap_err(),
                QpError::NotListening
            );
        });
        sim.run().expect_ok();
    }

    #[test]
    fn crash_drops_unflushed_rdma_write() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new(CostModel::default());
        let server = fabric.add_node("server");
        let client = fabric.add_node("client");
        let (pool, mr) = pool_mr(&server, 4096);
        let f = Arc::clone(&fabric);
        let f2 = Arc::clone(&fabric);
        let server2 = server.clone();
        let server3 = server.clone();
        let pool2 = Arc::clone(&pool);
        sim.spawn("server", move || {
            let _l = server2.listen(&f2, true);
            sim::sleep(efactory_sim::millis(1));
        });
        sim.spawn("client", move || {
            sim::yield_now();
            let qp = f.connect(&client, &server).unwrap();
            qp.rdma_write(&mr, 0, vec![0xAB; 512]).unwrap(); // acked, unflushed
                                                             // Sleep past the crash at t=10_000; the next op sees it.
            sim::sleep(20_000);
            assert_eq!(qp.rdma_read(&mr, 0, 512).unwrap_err(), QpError::Crashed);
        });
        let fc = Arc::clone(&fabric);
        sim.spawn("controller", move || {
            sim::sleep(10_000); // well after the write completed
            let mut rng = StdRng::seed_from_u64(1);
            fc.crash_node(&server3, CrashSpec::DropAll, &mut rng);
        });
        sim.run().expect_ok();
        // The acked-but-unflushed write is gone after the crash.
        let mut buf = vec![0u8; 512];
        pool.read(0, &mut buf);
        assert_eq!(buf, vec![0u8; 512]);
        drop(pool2);
    }

    #[test]
    fn crash_mid_transfer_tears_write_at_line_granularity() {
        // A 64 KiB write takes a while on the wire; crash halfway through
        // the stream and check that only a whole-line prefix landed (and
        // only if the crash spec lets dirty lines survive).
        let mut sim = Sim::new(0);
        let fabric = Fabric::new(CostModel::default());
        let server = fabric.add_node("server");
        let client = fabric.add_node("client");
        let (pool, mr) = pool_mr(&server, 1 << 17);
        let f = Arc::clone(&fabric);
        let f2 = Arc::clone(&fabric);
        let server2 = server.clone();
        let server3 = server.clone();
        sim.spawn("server", move || {
            let _l = server2.listen(&f2, true);
            sim::sleep(efactory_sim::millis(1));
        });
        let len = 1 << 16;
        sim.spawn("client", move || {
            sim::yield_now();
            let qp = f.connect(&client, &server).unwrap();
            assert_eq!(
                qp.rdma_write(&mr, 0, vec![0xFF; len]).unwrap_err(),
                QpError::Crashed,
                "ack must not arrive from a crashed node"
            );
        });
        let fc = Arc::clone(&fabric);
        let cost = CostModel::default();
        let t_crash = cost.one_way(0) + cost.wire(len) / 2; // mid-stream
        sim.spawn("controller", move || {
            sim::sleep_until(t_crash);
            let mut rng = StdRng::seed_from_u64(2);
            // KeepAll: dirty (arrived) lines survive, exposing the torn
            // prefix — the hazard Erda/eFactory defend against.
            fc.crash_node(&server3, CrashSpec::KeepAll, &mut rng);
        });
        sim.run().expect_ok();
        let snap = pool.working_snapshot();
        let arrived = snap.iter().take_while(|&&b| b == 0xFF).count();
        assert!(
            arrived > 0 && arrived < len,
            "should be torn, got {arrived}"
        );
        assert_eq!(arrived % LINE, 0, "tear must align to cache lines");
        assert!(
            snap[arrived..len].iter().all(|&b| b == 0),
            "no bytes beyond the torn prefix"
        );
    }

    #[test]
    fn ghost_server_cannot_reply_after_crash() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new(CostModel::default());
        let server = fabric.add_node("server");
        let client = fabric.add_node("client");
        let f = Arc::clone(&fabric);
        let f2 = Arc::clone(&fabric);
        let server2 = server.clone();
        let server3 = server.clone();
        sim.spawn("server", move || {
            let l = server2.listen(&f2, true);
            loop {
                match l.recv() {
                    Ok(Incoming::Send { from, payload }) => {
                        if l.reply(from, payload).is_err() {
                            break;
                        }
                    }
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
        });
        sim.spawn("client", move || {
            sim::yield_now();
            let qp = f.connect(&client, &server).unwrap();
            // First RPC succeeds.
            assert!(qp.rpc(vec![1]).is_ok());
            sim::sleep(50_000); // crash happens at t=10_000
                                // The QP to a crashed server errors out; and even if a request
                                // were already queued, the ghost's listener.recv() guard stops
                                // it from replying.
            assert_eq!(qp.rpc(vec![2]).unwrap_err(), QpError::Crashed);
        });
        let fc = Arc::clone(&fabric);
        sim.spawn("controller", move || {
            sim::sleep(10_000);
            let mut rng = StdRng::seed_from_u64(3);
            fc.crash_node(&server3, CrashSpec::DropAll, &mut rng);
        });
        match sim.run() {
            RunOutcome::Completed { .. } | RunOutcome::Idle { .. } => {}
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn restart_allows_relisten_and_reconnect() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new(CostModel::zero());
        let server = fabric.add_node("server");
        let client = fabric.add_node("client");
        let pool = Arc::new(PmemPool::new(4096));
        let f = Arc::clone(&fabric);
        let pool2 = Arc::clone(&pool);
        let server2 = server.clone();
        sim.spawn("controller", move || {
            // Crash immediately, then restart and serve.
            let mut rng = StdRng::seed_from_u64(4);
            f.crash_node(&server2, CrashSpec::DropAll, &mut rng);
            assert!(server2.is_crashed());
            f.restart_node(&server2);
            assert!(!server2.is_crashed());
            let server3 = server2.clone();
            let f2 = Arc::clone(&f);
            let mr = server2.register_mr(&pool2, 0, 4096);
            pool2.write(0, b"recovered");
            sim::spawn("server", move || {
                let _l = server3.listen(&f2, true);
                sim::sleep(1_000);
            });
            sim::yield_now();
            let client2 = f.add_node("client2");
            let qp = f.connect(&client2, &server2).unwrap();
            assert_eq!(qp.rdma_read(&mr, 0, 9).unwrap(), b"recovered");
        });
        drop(client);
        sim.run().expect_ok();
    }

    #[test]
    fn scheduled_crash_fires_at_chosen_instant() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new(CostModel::default());
        let server = fabric.add_node("server");
        let (pool, _mr) = pool_mr(&server, 4096);
        pool.write(0, b"dirty");
        let f = Arc::clone(&fabric);
        let server2 = server.clone();
        sim.spawn("controller", move || {
            f.schedule_crash(&server2, 5_000, CrashSpec::DropAll, 99);
            assert!(!server2.is_crashed(), "must not fire before the instant");
            sim::sleep_until(4_999);
            assert!(!server2.is_crashed());
            sim::sleep_until(5_001);
            assert!(server2.is_crashed(), "scheduled crash must have fired");
        });
        sim.run().expect_ok();
        // DropAll resolved the pool's dirty lines at the crash instant.
        let mut buf = vec![0u8; 5];
        pool.read(0, &mut buf);
        assert_eq!(buf, vec![0u8; 5]);
    }

    #[test]
    fn link_fault_times_out_requests_until_healed() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new(CostModel::default());
        let server = fabric.add_node("server");
        let client = fabric.add_node("client");
        let (_pool, mr) = pool_mr(&server, 4096);
        let f = Arc::clone(&fabric);
        let f2 = Arc::clone(&fabric);
        let server2 = server.clone();
        sim.spawn("server", move || {
            let l = server2.listen(&f2, true);
            loop {
                match l.recv_deadline(sim::now() + efactory_sim::millis(400)) {
                    Ok(Incoming::Send { from, payload }) => {
                        let _ = l.reply(from, payload);
                    }
                    Ok(_) => {}
                    Err(QpError::Timeout) => return,
                    Err(_) => return,
                }
            }
        });
        sim.spawn("client", move || {
            sim::yield_now();
            let qp = f.connect(&client, &server).unwrap();
            assert!(qp.rpc(vec![1]).is_ok(), "link starts healthy");
            f.fail_link(&client, &server);
            // Two-sided: the request is swallowed, the deadline fires.
            assert_eq!(qp.rpc(vec![2]).unwrap_err(), QpError::Timeout);
            // One-sided: a wasted round trip then Timeout, data untouched.
            assert_eq!(qp.rdma_read(&mr, 0, 8).unwrap_err(), QpError::Timeout);
            assert_eq!(
                qp.rdma_write(&mr, 0, vec![9u8; 8]).unwrap_err(),
                QpError::Timeout
            );
            f.heal_link(&client, &server);
            assert!(qp.rpc(vec![3]).is_ok(), "healed link must work again");
            assert!(qp.rdma_read(&mr, 0, 8).is_ok());
        });
        sim.run().expect_ok();
    }

    /// Spawn an echo server + a client body, run to completion.
    fn echo_rig(
        fabric: &Arc<Fabric>,
        sim: &mut Sim,
        client_body: impl FnOnce(ClientQp) + Send + 'static,
    ) {
        let server = fabric.add_node("server");
        let client = fabric.add_node("client");
        let f = Arc::clone(fabric);
        let f2 = Arc::clone(fabric);
        let server2 = server.clone();
        sim.spawn("server", move || {
            let l = server2.listen(&f2, true);
            loop {
                match l.recv_deadline(sim::now() + efactory_sim::millis(400)) {
                    Ok(Incoming::Send { from, payload }) => {
                        let _ = l.reply(from, payload);
                    }
                    Ok(_) => {}
                    Err(_) => return,
                }
            }
        });
        sim.spawn("client", move || {
            sim::yield_now();
            let qp = f.connect(&client, &server).unwrap();
            client_body(qp);
        });
    }

    #[test]
    fn total_loss_plan_times_out_rpcs() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new(CostModel::default());
        fabric.set_fault_plan(Some(FaultPlan::lossy(1.0, 5)));
        let fc = Arc::clone(&fabric);
        echo_rig(&fabric, &mut sim, move |qp| {
            assert_eq!(qp.rpc(vec![1]).unwrap_err(), QpError::Timeout);
            fc.set_fault_plan(None);
            assert!(qp.rpc(vec![2]).is_ok(), "disarmed plan must deliver");
        });
        sim.run().expect_ok();
        assert!(fabric.stats().fault_dropped.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn duplicate_plan_delivers_request_twice() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new(CostModel::default());
        fabric.set_fault_plan(Some(FaultPlan::chaos(0.0, 1.0, 0.0, 0, 5)));
        echo_rig(&fabric, &mut sim, move |qp| {
            qp.send(vec![1]).unwrap();
            // The duplicated request produces two (also duplicated) replies.
            let deadline = sim::now() + efactory_sim::millis(10);
            let mut replies = 0;
            while qp.recv_reply_deadline(deadline).is_ok() {
                replies += 1;
            }
            assert!(replies >= 2, "expected a duplicate, got {replies} replies");
        });
        sim.run().expect_ok();
        assert!(fabric.stats().fault_duplicated.load(Ordering::Relaxed) >= 2);
    }

    #[test]
    fn delay_plan_slows_but_delivers() {
        let extra = efactory_sim::micros(30);
        let elapsed = |armed: bool| -> Nanos {
            let mut sim = Sim::new(0);
            let fabric = Fabric::new(CostModel::default());
            if armed {
                fabric.set_fault_plan(Some(FaultPlan::chaos(0.0, 0.0, 1.0, extra, 5)));
            }
            let out = Arc::new(AtomicU64::new(0));
            let out2 = Arc::clone(&out);
            echo_rig(&fabric, &mut sim, move |qp| {
                let t0 = sim::now();
                qp.rpc(vec![1]).unwrap();
                out2.store(sim::now() - t0, Ordering::Relaxed);
            });
            sim.run().expect_ok();
            out.load(Ordering::Relaxed)
        };
        // Request and reply are each delayed once.
        assert_eq!(elapsed(true), elapsed(false) + 2 * extra);
    }

    #[test]
    fn one_sided_drop_costs_retransmission_round_trip() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new(CostModel::default());
        let server = fabric.add_node("server");
        let client = fabric.add_node("client");
        let (pool, mr) = pool_mr(&server, 4096);
        pool.write(0, b"survives loss");
        fabric.set_fault_plan(Some(FaultPlan::lossy(1.0, 5)));
        let f = Arc::clone(&fabric);
        sim.spawn("server", {
            let server = server.clone();
            let f = Arc::clone(&fabric);
            move || {
                let _l = server.listen(&f, true);
                sim::sleep(efactory_sim::millis(1));
            }
        });
        sim.spawn("client", move || {
            sim::yield_now();
            let qp = f.connect(&client, &server).unwrap();
            let cost = CostModel::default();
            let t0 = sim::now();
            // Reliable transport: the read still succeeds, one RTT late.
            assert_eq!(qp.rdma_read(&mr, 0, 13).unwrap(), b"survives loss");
            assert_eq!(
                sim::now() - t0,
                cost.one_way(0) * 2 + cost.one_way(0) + cost.one_way(13)
            );
        });
        sim.run().expect_ok();
        assert_eq!(fabric.stats().fault_retrans.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn per_link_fault_leaves_other_links_clean() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new(CostModel::default());
        let server = fabric.add_node("server");
        let lossy = fabric.add_node("lossy-client");
        let clean = fabric.add_node("clean-client");
        fabric.set_link_fault(&server, &lossy, FaultPlan::lossy(1.0, 5));
        let f = Arc::clone(&fabric);
        let f2 = Arc::clone(&fabric);
        let server2 = server.clone();
        sim.spawn("server", move || {
            let l = server2.listen(&f2, true);
            loop {
                match l.recv_deadline(sim::now() + efactory_sim::millis(400)) {
                    Ok(Incoming::Send { from, payload }) => {
                        let _ = l.reply(from, payload);
                    }
                    Ok(_) => {}
                    Err(_) => return,
                }
            }
        });
        sim.spawn("clients", move || {
            sim::yield_now();
            let qp_lossy = f.connect(&lossy, &server).unwrap();
            let qp_clean = f.connect(&clean, &server).unwrap();
            assert_eq!(qp_lossy.rpc(vec![1]).unwrap_err(), QpError::Timeout);
            assert!(
                qp_clean.rpc(vec![2]).is_ok(),
                "clean link must be unaffected"
            );
            f.clear_link_fault(&lossy, &server);
            assert!(qp_lossy.rpc(vec![3]).is_ok(), "cleared link must recover");
        });
        sim.run().expect_ok();
    }

    #[test]
    fn fault_sequence_replays_identically_for_same_seed() {
        let run = |seed: u64| -> (u64, u64, u64, u64) {
            let mut sim = Sim::new(1);
            let fabric = Fabric::new(CostModel::default());
            fabric.set_fault_plan(Some(FaultPlan::chaos(0.1, 0.1, 0.1, 1_000, seed)));
            echo_rig(&fabric, &mut sim, move |qp| {
                for i in 0..40u8 {
                    let _ = qp.rpc(vec![i]);
                }
            });
            sim.run().expect_ok();
            let s = fabric.stats();
            (
                s.fault_dropped.load(Ordering::Relaxed),
                s.fault_duplicated.load(Ordering::Relaxed),
                s.fault_delayed.load(Ordering::Relaxed),
                s.sends.load(Ordering::Relaxed),
            )
        };
        assert_eq!(run(11), run(11), "same seed must replay identically");
        assert_ne!(run(11), run(12), "different seeds should diverge");
    }

    #[test]
    fn crash_counter_tracks_injected_crashes() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new(CostModel::zero());
        let server = fabric.add_node("server");
        let f = Arc::clone(&fabric);
        sim.spawn("controller", move || {
            let mut rng = StdRng::seed_from_u64(1);
            f.crash_node(&server, CrashSpec::DropAll, &mut rng);
        });
        sim.run().expect_ok();
        assert_eq!(fabric.stats().crashes.load(Ordering::Relaxed), 1);
        assert_eq!(fabric.links_down_count(), 0);
    }

    #[test]
    fn send_doorbell_amortizes_post_cost() {
        // A chain of B posts costs one doorbell MMIO + (B-1) amortized
        // rates, charged up front when the chain is rung; batch <= 1
        // degenerates to the flat per-post charge.
        let mut sim = Sim::new(0);
        sim.spawn("poster", || {
            let cost = CostModel::default();
            let flat = DoorbellChain::send(&cost, 1);
            let t0 = sim::now();
            for _ in 0..8 {
                flat.charge();
            }
            assert_eq!(sim::now() - t0, 8 * cost.cpu_send_post_ns);

            let chained = DoorbellChain::send(&cost, 4);
            let t1 = sim::now();
            for _ in 0..8 {
                chained.charge();
            }
            // Two chains of 4: 2 * (150 + 3*30).
            assert_eq!(
                sim::now() - t1,
                2 * (cost.cpu_send_post_ns + 3 * cost.cpu_send_post_batched_ns)
            );
        });
        sim.run().expect_ok();
    }
}
