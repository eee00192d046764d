//! Replicated cluster metadata/membership service.
//!
//! Three (by default) replica processes, each on its own fabric node
//! (`meta{r}`), keep the cluster's control-plane state — the placement
//! map, per-node liveness, and the at-most-one in-flight migration —
//! consistent by replicating one small versioned [`MetaState`]:
//!
//! * **Terms + election.** Replicas start as followers. A follower that
//!   hears nothing from a leader for its (deterministically staggered)
//!   election timeout first runs a pre-vote (Raft thesis §9.6): it asks
//!   its peers whether they would vote for it at `term + 1`, without
//!   raising its own term. A peer grants a pre-vote only if it would
//!   grant that vote and has heard from no leader within the base
//!   election timeout. Only a majority of pre-votes starts a campaign: the
//!   follower bumps its term, votes for itself, and requests votes from
//!   its peers. A vote is granted at most once per term and only to a
//!   candidate whose version `(term, index)` is at least the voter's —
//!   Raft's up-to-date rule, with the version in place of (last log term,
//!   length). Majority grants make a leader. A replica cut off from its
//!   peers therefore never raises its term, and cannot depose a working
//!   leader with an inflated one once its links heal.
//! * **State replication.** The leader applies a command from a
//!   `Propose` RPC to its state, bumps the version to
//!   `(term, index + 1)`, and replicates synchronously: every `Append`
//!   carries the leader's version and *whole* state (a few dozen bytes),
//!   which a follower at an equal or newer term adopts in place of its
//!   own. A proposal is committed once a majority (leader included) acks
//!   the round that ships it; only then is the proposer answered.
//! * **Death detection via the virtual clock.** Each data node's agent
//!   heartbeats the leader, and the leader answers with its state. The
//!   leader sweeps `last_seen` on its heartbeat tick and proposes
//!   `NodeDown` when a node has been silent past the death timeout; a
//!   heartbeat from a down node proposes `NodeUp`. Liveness transitions
//!   are therefore replicated facts, not per-replica opinions.
//! * **One ownership authority.** Only [`MetaState::apply`] changes who
//!   serves a shard: a `MigrateCommit`, or a `NodeDown` that promotes each
//!   shard of the dead node whose backup is in sync. A backup leaves sync
//!   through a committed `BackupLost` (its mirror failed) or the death of
//!   its node, and never comes back in this state machine.
//!
//! Shipping the whole state replaces Raft's log, per-follower nextIndex
//! repair and compaction on purpose (DESIGN.md §10). Three load-bearing
//! rules it does NOT relax:
//!
//! * **Persistence.** Term, vote, version and state are written to the
//!   replica's simulated stable storage before they are acted on over
//!   the network, and a power-failed replica reboots *from* that
//!   storage. Without this, a restarted replica could double-vote in a
//!   term it already voted in, or grant a vote to a candidate missing a
//!   committed state — letting an acknowledged command be erased.
//! * **Replicate-at-election.** A new leader stamps its state with its
//!   own term, `(term, index + 1)` (Raft's no-op entry), persists it, and
//!   runs a replication round before serving. A state it inherited from
//!   an older term is committed only through that stamp: counting the
//!   replicas that hold it is not enough, because a candidate holding an
//!   uncommitted state written in a later (but still older) term could
//!   then win a vote and erase it (Raft's "Figure 8").
//! * **Read-index + step-down.** The leader only answers `GetMap` after
//!   a replication round confirms a majority still follows it, and any
//!   round that loses its majority makes it step down — so a deposed
//!   leader on the wrong side of a partition can never serve a stale
//!   placement map as authoritative.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use efactory_obs::{Counter, Registry};
use efactory_rnic::{ClientQp, Fabric, Incoming, Listener, Node, QpError};
use efactory_sim as sim;
use sim::Nanos;

use super::placement::PlacementMap;

/// Control-plane commands, applied one at a time by the leader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaCmd {
    /// `node` stopped heartbeating: mark it dead. Aborts an in-flight
    /// migration touching it (the driver observes and gives up), moves
    /// each shard it owns whose backup is in sync to the backup's node,
    /// and takes every backup it holds out of sync.
    NodeDown(u32),
    /// `node` is heartbeating again (restarted + recovered).
    NodeUp(u32),
    /// Begin migrating `shard` to `to`. At most one migration is in
    /// flight cluster-wide.
    MigrateStart { shard: u32, to: u32 },
    /// The copy is verified: flip ownership of `shard` to the migration
    /// destination and bump the placement epoch.
    MigrateCommit { shard: u32 },
    /// Abandon the in-flight migration of `shard`; the source stays the
    /// one owner.
    MigrateAbort { shard: u32 },
    /// The mirror to `shard`'s backup failed: the backup is out of sync
    /// and can no longer be promoted.
    BackupLost { shard: u32 },
}

impl MetaCmd {
    fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(9);
        match self {
            MetaCmd::NodeDown(n) => {
                b.push(1);
                b.extend_from_slice(&n.to_le_bytes());
            }
            MetaCmd::NodeUp(n) => {
                b.push(2);
                b.extend_from_slice(&n.to_le_bytes());
            }
            MetaCmd::MigrateStart { shard, to } => {
                b.push(3);
                b.extend_from_slice(&shard.to_le_bytes());
                b.extend_from_slice(&to.to_le_bytes());
            }
            MetaCmd::MigrateCommit { shard } => {
                b.push(4);
                b.extend_from_slice(&shard.to_le_bytes());
            }
            MetaCmd::MigrateAbort { shard } => {
                b.push(5);
                b.extend_from_slice(&shard.to_le_bytes());
            }
            MetaCmd::BackupLost { shard } => {
                b.push(6);
                b.extend_from_slice(&shard.to_le_bytes());
            }
        }
        b
    }

    fn decode(b: &[u8]) -> Option<(MetaCmd, usize)> {
        let u32_at = |off: usize| -> Option<u32> {
            b.get(off..off + 4)
                .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
        };
        match *b.first()? {
            1 => Some((MetaCmd::NodeDown(u32_at(1)?), 5)),
            2 => Some((MetaCmd::NodeUp(u32_at(1)?), 5)),
            3 => Some((
                MetaCmd::MigrateStart {
                    shard: u32_at(1)?,
                    to: u32_at(5)?,
                },
                9,
            )),
            4 => Some((MetaCmd::MigrateCommit { shard: u32_at(1)? }, 5)),
            5 => Some((MetaCmd::MigrateAbort { shard: u32_at(1)? }, 5)),
            6 => Some((MetaCmd::BackupLost { shard: u32_at(1)? }, 5)),
            _ => None,
        }
    }
}

/// The replicated control-plane state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaState {
    /// Who owns which shard, tagged with the placement epoch.
    pub placement: PlacementMap,
    /// Per data node liveness, as decided by the leader's death sweep.
    pub alive: Vec<bool>,
    /// The at-most-one in-flight migration: `(shard, destination)`.
    pub migrating: Option<(u32, u32)>,
    /// `backups[shard]`: the data node holding the shard's in-sync backup,
    /// the only copy a promotion may serve; `None` when the shard has no
    /// backup or its backup fell out of sync.
    pub backups: Vec<Option<u32>>,
}

impl MetaState {
    /// The initial state every replica boots with: shards round-robin
    /// over `nodes` data nodes, everyone alive, nothing migrating. With
    /// `replicas > 0` each shard's backup sits on its owner's next data
    /// node, in sync; one node with backups gets a second, backup-only
    /// data node.
    pub fn initial(shards: usize, nodes: usize, replicas: usize) -> MetaState {
        let data_nodes = if replicas > 0 { nodes.max(2) } else { nodes };
        let placement = PlacementMap::initial(shards, nodes);
        let backups = (0..shards)
            .map(|g| {
                let next = (placement.node_of_shard(g) + 1) % data_nodes;
                (replicas > 0).then_some(next as u32)
            })
            .collect();
        MetaState {
            placement,
            alive: vec![true; data_nodes],
            migrating: None,
            backups,
        }
    }

    /// Apply one command. Total and deterministic: invalid commands (e.g.
    /// a commit for a migration that was already aborted) are no-ops, so
    /// a proposer reads what its command did from the returned state.
    /// This is the only code that changes who serves a shard.
    pub fn apply(&mut self, cmd: &MetaCmd) {
        match *cmd {
            MetaCmd::NodeDown(n) => {
                if let Some(a) = self.alive.get_mut(n as usize) {
                    *a = false;
                }
                // A migration whose source or destination died cannot
                // finish: auto-abort so the slot frees up.
                if let Some((g, to)) = self.migrating {
                    let from = self.placement.node_of_shard(g as usize);
                    if to == n || from == n as usize {
                        self.migrating = None;
                    }
                }
                // Promote each of `n`'s shards whose backup is in sync (one
                // epoch bump each), and drop every backup `n` held.
                for (g, backup) in self.backups.iter_mut().enumerate() {
                    if self.placement.node_of_shard(g) == n as usize {
                        if let Some(b) = backup.take() {
                            self.placement.reassign(g, b as usize);
                        }
                    } else if *backup == Some(n) {
                        *backup = None;
                    }
                }
            }
            MetaCmd::NodeUp(n) => {
                if let Some(a) = self.alive.get_mut(n as usize) {
                    *a = true;
                }
            }
            MetaCmd::MigrateStart { shard, to } => {
                // The destination's seat for the shard must be free: its
                // owner's, or its in-sync backup's.
                let valid = self.migrating.is_none()
                    && (shard as usize) < self.placement.shards()
                    && (to as usize) < self.alive.len()
                    && self.alive[to as usize]
                    && self.placement.node_of_shard(shard as usize) != to as usize
                    && self.backups[shard as usize] != Some(to);
                if valid {
                    self.migrating = Some((shard, to));
                }
            }
            MetaCmd::MigrateCommit { shard } => {
                if let Some((g, to)) = self.migrating {
                    if g == shard {
                        // The backup mirrored the source, not the copy.
                        self.placement.reassign(g as usize, to as usize);
                        self.backups[g as usize] = None;
                        self.migrating = None;
                    }
                }
            }
            MetaCmd::MigrateAbort { shard } => {
                if let Some((g, _)) = self.migrating {
                    if g == shard {
                        self.migrating = None;
                    }
                }
            }
            MetaCmd::BackupLost { shard } => {
                if let Some(b) = self.backups.get_mut(shard as usize) {
                    *b = None;
                }
            }
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut b = self.placement.encode();
        b.extend_from_slice(&(self.alive.len() as u32).to_le_bytes());
        b.extend(self.alive.iter().map(|&a| a as u8));
        match self.migrating {
            Some((g, to)) => {
                b.push(1);
                b.extend_from_slice(&g.to_le_bytes());
                b.extend_from_slice(&to.to_le_bytes());
            }
            None => b.push(0),
        }
        for backup in &self.backups {
            b.extend_from_slice(&backup.unwrap_or(u32::MAX).to_le_bytes());
        }
        b
    }

    fn decode(b: &[u8]) -> Option<MetaState> {
        let placement = PlacementMap::decode(b)?;
        let mut off = 12 + 4 * placement.shards();
        let n = u32::from_le_bytes(b.get(off..off + 4)?.try_into().unwrap()) as usize;
        off += 4;
        let alive: Vec<bool> = b.get(off..off + n)?.iter().map(|&x| x != 0).collect();
        off += n;
        let migrating = match *b.get(off)? {
            1 => {
                let g = u32::from_le_bytes(b.get(off + 1..off + 5)?.try_into().unwrap());
                let to = u32::from_le_bytes(b.get(off + 5..off + 9)?.try_into().unwrap());
                Some((g, to))
            }
            _ => None,
        };
        off += if migrating.is_some() { 9 } else { 1 };
        let backups = (0..placement.shards())
            .map(|g| get_u32(b, off + 4 * g).map(|n| (n != u32::MAX).then_some(n)))
            .collect::<Option<_>>()?;
        Some(MetaState {
            placement,
            alive,
            migrating,
            backups,
        })
    }
}

/// Aggregate counters for the metadata service (shared by all replicas —
/// the audit cares about service-level activity, not per-replica splits).
#[derive(Debug, Default)]
pub struct MetaStats {
    /// Leader elections won (across all replicas and terms).
    pub elections: Counter,
    /// Highest term ever adopted (gauge-as-counter: monotone max).
    pub terms: Counter,
    /// Proposals committed: a majority acked the round that shipped them.
    pub commits: Counter,
    /// Append RPCs sent by leaders (heartbeats included).
    pub appends: Counter,
    /// Data-node heartbeats processed by a leader.
    pub heartbeats: Counter,
    /// `NodeDown` proposals committed (each transition once).
    pub node_downs: Counter,
    /// `NodeUp` proposals committed (each transition once).
    pub node_ups: Counter,
    /// Shards a committed `NodeDown` moved to their in-sync backup's node.
    pub promotions: Counter,
    /// Proposals rejected by leader-side validation.
    pub rejects: Counter,
    /// `GetMap` reads served by a leader.
    pub getmaps: Counter,
}

impl MetaStats {
    /// Attach every counter to `reg` under `meta.*` names.
    pub fn register(&self, reg: &Registry) {
        let pairs: [(&str, &Counter); 10] = [
            ("meta.elections", &self.elections),
            ("meta.terms", &self.terms),
            ("meta.commits", &self.commits),
            ("meta.appends", &self.appends),
            ("meta.heartbeats", &self.heartbeats),
            ("meta.node_downs", &self.node_downs),
            ("meta.node_ups", &self.node_ups),
            ("meta.promotions", &self.promotions),
            ("meta.rejects", &self.rejects),
            ("meta.getmaps", &self.getmaps),
        ];
        for (name, c) in pairs {
            reg.attach_counter(name, c);
        }
    }
}

// Service timing. All deterministic; the election timeout is staggered
// per replica so campaigns never tie.

/// Metadata replicas (odd).
const REPLICAS: usize = 3;
/// Replica loop tick (listener receive deadline).
const TICK: Nanos = sim::micros(10);
/// Leader heartbeat (empty `Append`) period; also the death-sweep cadence.
const HEARTBEAT_EVERY: Nanos = sim::micros(40);
/// Base election timeout; replica `r` waits `base + r * stagger`.
const ELECTION_BASE: Nanos = sim::micros(200);
/// Per-replica election stagger.
const ELECTION_STAGGER: Nanos = sim::micros(80);
/// Peer RPC reply deadline (votes, append acks).
const PEER_RPC: Nanos = sim::micros(50);
/// How often a vote round checks its peers' queues for replies.
const VOTE_POLL: Nanos = sim::micros(1);
/// A data node silent for this long is proposed down.
const DEATH_TIMEOUT: Nanos = sim::micros(400);

// ---------------------------------------------------------------------
// Wire protocol. Peer messages (replica <-> replica) and client messages
// (agents, drivers, cluster clients) share one listener per replica.
// ---------------------------------------------------------------------

const M_REQUEST_VOTE: u8 = 0x01;
const M_APPEND: u8 = 0x02;
const M_PRE_VOTE: u8 = 0x03;
const M_GET_MAP: u8 = 0x10;
const M_PROPOSE: u8 = 0x11;
const M_HEARTBEAT: u8 = 0x12;

const R_VOTE: u8 = 0x81;
const R_APPEND_ACK: u8 = 0x82;
const R_PRE_VOTE: u8 = 0x83;
const R_MAP: u8 = 0x90;
const R_PROPOSE: u8 = 0x91;
const R_HEARTBEAT_ACK: u8 = 0x92;

/// Reply status for client-facing RPCs.
const S_OK: u8 = 0;
const S_NOT_LEADER: u8 = 1;
const S_REJECTED: u8 = 2;
const S_UNAVAILABLE: u8 = 3;

fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn get_u64(b: &[u8], off: usize) -> Option<u64> {
    b.get(off..off + 8)
        .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
}

fn get_u32(b: &[u8], off: usize) -> Option<u32> {
    b.get(off..off + 4)
        .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
}

/// The reply to peer round `round` on `qp` by `deadline`, skipping replies
/// to earlier rounds. A peer reply is `[op, term, flag, round]`.
fn recv_round(qp: &ClientQp, round: u64, deadline: Nanos) -> Result<Vec<u8>, QpError> {
    loop {
        let b = qp.recv_reply_deadline(deadline)?;
        if get_u64(&b, 10) == Some(round) {
            return Ok(b);
        }
    }
}

/// A state's version, `(term, index)`: the term of the leader that wrote
/// it and the number of writes since format. Versions compare as Raft
/// compares (last log term, length).
type Version = (u64, u64);

/// A replica's simulated stable storage: exactly what must survive a
/// power failure — current term, vote, and the versioned state. The
/// [`MetaService`] owns one cell per replica; a restarted replica process
/// reboots from it, so a vote it granted or a state it acknowledged can
/// never be un-acknowledged by a crash. The store is atomic (the sim's
/// cooperative scheduling cannot preempt it), modelling an fsync'd write
/// that completes before the next message is sent.
#[derive(Clone)]
struct Durable {
    term: u64,
    voted_for: Option<u32>,
    version: Version,
    state: MetaState,
}

/// One replica of the metadata service.
struct Replica {
    r: usize,
    n_replicas: usize,
    data_nodes: usize,
    node: Node,
    fabric: Arc<Fabric>,
    peers: Vec<Option<ClientQp>>,
    peer_nodes: Vec<Node>,
    /// Do not contact peer `p` again before this instant. A peer that
    /// just timed out costs a full `peer_rpc` deadline of *blocking* per
    /// attempt (a partitioned link swallows the request silently), so
    /// probing it on every round would leave the leader wedged in dead
    /// RPCs instead of serving — back off and re-probe periodically.
    peer_backoff: Vec<Nanos>,

    term: u64,
    voted_for: Option<u32>,
    is_leader: bool,
    leader_hint: u32,
    version: Version,
    state: MetaState,

    last_contact: Nanos,
    /// When this replica last accepted an `Append` from a leader (`None`
    /// since boot): a follower that heard from one within
    /// [`ELECTION_BASE`] refuses pre-votes.
    last_leader: Option<Nanos>,
    next_heartbeat: Nanos,
    last_seen: Vec<Nanos>,
    /// Peer rounds (vote rounds and appends) this process has run. Every
    /// peer request carries its round and every reply echoes it, so a
    /// reply to an earlier round — a late one, or a copy the fabric
    /// delivered twice — is never read as this round's.
    round: u64,

    durable: Arc<Mutex<Durable>>,
    stats: Arc<MetaStats>,
    stop: Arc<AtomicBool>,
}

/// The service handle: replica nodes + shared state, owned by the control
/// plane of a [`Store`](crate::store::Store).
pub struct MetaService {
    nodes: Vec<Node>,
    /// Per-replica simulated stable storage (survives power failure).
    durable: Vec<Arc<Mutex<Durable>>>,
    data_nodes: usize,
    stats: Arc<MetaStats>,
    stop: Arc<AtomicBool>,
}

impl MetaService {
    /// Create the replica nodes (named `meta{r}`) on `fabric`. Processes
    /// start in [`start`](Self::start).
    pub fn new(
        fabric: &Fabric,
        data_nodes: usize,
        init: MetaState,
        stats: Arc<MetaStats>,
        stop: Arc<AtomicBool>,
    ) -> MetaService {
        let nodes = (0..REPLICAS)
            .map(|r| fabric.add_node(&format!("meta{r}")))
            .collect();
        let durable = (0..REPLICAS)
            .map(|_| {
                Arc::new(Mutex::new(Durable {
                    term: 0,
                    voted_for: None,
                    version: (0, 0),
                    state: init.clone(),
                }))
            })
            .collect();
        MetaService {
            nodes,
            durable,
            data_nodes,
            stats,
            stop,
        }
    }

    /// The replica fabric nodes (clients round-robin these to find the
    /// leader).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Spawn every replica process. Must run inside a simulated process
    /// (listeners are created here, so replicas are addressable when this
    /// returns).
    pub fn start(&self, fabric: &Arc<Fabric>) {
        for r in 0..self.nodes.len() {
            self.spawn_replica(fabric, r);
        }
    }

    /// Re-admit a power-failed replica: restart its node and reboot the
    /// process from its simulated stable storage. Term, vote, version and
    /// state survive the failure — the classic Raft requirement — so the
    /// restarted replica can neither double-vote in a term it already
    /// voted in nor elect a candidate missing a committed state. It
    /// reboots a follower and learns the leader from the next `Append`.
    pub fn restart_replica(&self, fabric: &Arc<Fabric>, r: usize) {
        fabric.restart_node(&self.nodes[r]);
        self.spawn_replica(fabric, r);
    }

    fn spawn_replica(&self, fabric: &Arc<Fabric>, r: usize) {
        let node = &self.nodes[r];
        let listener = node.listen_with(fabric, false, 0);
        let d = self.durable[r].lock().unwrap().clone();
        let mut rep = Replica {
            r,
            n_replicas: self.nodes.len(),
            data_nodes: self.data_nodes,
            node: node.clone(),
            fabric: Arc::clone(fabric),
            peers: (0..self.nodes.len()).map(|_| None).collect(),
            peer_nodes: self.nodes.clone(),
            peer_backoff: vec![0; self.nodes.len()],
            term: d.term,
            voted_for: d.voted_for,
            is_leader: false,
            leader_hint: 0,
            version: d.version,
            state: d.state,
            last_contact: sim::now(),
            last_leader: None,
            next_heartbeat: 0,
            last_seen: vec![sim::now(); self.data_nodes],
            round: 0,
            durable: Arc::clone(&self.durable[r]),
            stats: Arc::clone(&self.stats),
            stop: Arc::clone(&self.stop),
        };
        sim::spawn(&format!("efactory-meta{r}"), move || rep.run(listener));
    }
}

impl Replica {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed) || self.node.is_crashed()
    }

    fn election_timeout(&self) -> Nanos {
        ELECTION_BASE + self.r as Nanos * ELECTION_STAGGER
    }

    fn majority(&self) -> usize {
        self.n_replicas / 2 + 1
    }

    /// Write term, vote, version and state to stable storage. Must run
    /// after every mutation of those fields and before the mutation is
    /// acted on over the network.
    fn persist(&self) {
        *self.durable.lock().unwrap() = Durable {
            term: self.term,
            voted_for: self.voted_for,
            version: self.version,
            state: self.state.clone(),
        };
    }

    fn run(&mut self, listener: Listener) {
        loop {
            if self.stopping() {
                return;
            }
            match listener.recv_deadline(sim::now() + TICK) {
                Ok(Incoming::Send { from, payload }) => {
                    self.dispatch(&listener, from, &payload);
                }
                Ok(_) => {}
                Err(QpError::Timeout) => {}
                Err(_) => return,
            }
            self.tick_duties();
        }
    }

    /// Time-driven work: elections for followers, heartbeats + death
    /// sweep for the leader. A heartbeat round that loses its majority
    /// steps the leader down (see [`replicate`](Self::replicate)), so the
    /// death sweep never runs on deposed state.
    fn tick_duties(&mut self) {
        let now = sim::now();
        if self.is_leader {
            if now >= self.next_heartbeat {
                self.next_heartbeat = now + HEARTBEAT_EVERY;
                if self.replicate() {
                    self.death_sweep();
                }
            }
        } else if now.saturating_sub(self.last_contact) > self.election_timeout() {
            self.campaign();
        }
    }

    /// A replica-crash epoch guard wrapper: peer QPs die with the peer;
    /// drop and lazily re-dial.
    fn peer_qp(&mut self, p: usize) -> Option<&ClientQp> {
        if self.peers[p].is_none() {
            self.peers[p] = self.fabric.connect(&self.node, &self.peer_nodes[p]).ok();
        }
        self.peers[p].as_ref()
    }

    fn adopt_term(&mut self, term: u64) {
        if term > self.term {
            self.term = term;
            self.voted_for = None;
            self.is_leader = false;
            self.persist();
            // Track the max term as a monotone counter.
            while self.stats.terms.get() < term {
                self.stats.terms.inc();
            }
        }
    }

    /// Start the next peer round: its number, which every reply to it
    /// echoes.
    fn next_round(&mut self) -> u64 {
        self.round += 1;
        self.round
    }

    /// Ask every peer at once for a vote (`op` is `RequestVote` or
    /// pre-vote) for this replica at `term`, then collect the replies to
    /// this round under one [`PEER_RPC`] deadline, checking every peer's
    /// queue each [`VOTE_POLL`]. Returns the grants, this replica's own
    /// included, as soon as they reach a majority or every asked peer has
    /// answered, so a silent peer delays the round only when the others
    /// cannot decide it; `None` once a reply carries a newer term, which
    /// this replica then adopts. However the round ends, every peer that
    /// has not answered has its QP dropped, as after a timeout; the next
    /// round re-dials it.
    fn poll_votes(&mut self, op: u8, term: u64) -> Option<usize> {
        let round = self.next_round();
        let mut req = vec![op];
        put_u64(&mut req, term);
        req.extend_from_slice(&(self.r as u32).to_le_bytes());
        put_u64(&mut req, self.version.0);
        put_u64(&mut req, self.version.1);
        put_u64(&mut req, round);
        let deadline = sim::now() + PEER_RPC;
        let (n, me) = (self.n_replicas, self.r);
        let mut pending = Vec::with_capacity(n - 1);
        for p in (0..n).filter(|&p| p != me) {
            match self.peer_qp(p).map(|qp| qp.send(req.clone())) {
                Some(Ok(())) => pending.push(p),
                _ => self.peers[p] = None,
            }
        }
        let mut votes = 1usize; // self
        let mut newer = None;
        while votes < self.majority()
            && newer.is_none()
            && !pending.is_empty()
            && sim::now() < deadline
        {
            sim::sleep(VOTE_POLL);
            let mut still = Vec::with_capacity(pending.len());
            for p in pending {
                let reply = self.peers[p]
                    .as_ref()
                    .map(|qp| recv_round(qp, round, sim::now()));
                match reply {
                    Some(Ok(b)) => {
                        let voter_term = get_u64(&b, 1).unwrap_or(0);
                        if voter_term > self.term {
                            newer = newer.max(Some(voter_term));
                        } else if b.get(9) == Some(&1) {
                            votes += 1;
                        }
                    }
                    Some(Err(QpError::Timeout)) => still.push(p),
                    _ => self.peers[p] = None,
                }
            }
            pending = still;
        }
        for p in pending {
            self.peers[p] = None;
        }
        if let Some(t) = newer {
            self.adopt_term(t);
            return None;
        }
        Some(votes)
    }

    /// Election timeout: a pre-vote round, then, on a majority of
    /// pre-votes, a campaign at `term + 1`.
    fn campaign(&mut self) {
        self.last_contact = sim::now();
        if self
            .poll_votes(M_PRE_VOTE, self.term + 1)
            .is_none_or(|votes| votes < self.majority())
        {
            return;
        }
        self.adopt_term(self.term + 1);
        self.voted_for = Some(self.r as u32);
        self.persist();
        self.last_contact = sim::now();
        let Some(votes) = self.poll_votes(M_REQUEST_VOTE, self.term) else {
            return;
        };
        if votes >= self.majority() {
            self.is_leader = true;
            self.leader_hint = self.r as u32;
            // A fresh mandate probes every peer, whatever its history.
            self.peer_backoff.iter_mut().for_each(|b| *b = 0);
            self.next_heartbeat = 0; // heartbeat immediately
                                     // Fresh grace for every data node so a new leader does not
                                     // instantly declare the world dead.
            let now = sim::now();
            self.last_seen.iter_mut().for_each(|t| *t = now);
            self.stats.elections.inc();
            // Stamp the inherited state with this term, then replicate it
            // BEFORE serving. Counting the replicas that hold an
            // older-term state does not commit it — a candidate holding an
            // uncommitted state from a later term could still win a vote
            // and erase it — but a majority holding this term's stamp
            // does. Serving before the round would also answer from a
            // state no majority may hold yet.
            self.version = (self.term, self.version.1 + 1);
            self.persist();
            self.replicate();
        }
    }

    /// Ship the version and state to every peer. Doubles as the
    /// heartbeat AND as the leadership confirmation: returns `true` iff a
    /// majority acked this round, i.e. holds this state. A round that
    /// loses its majority steps the leader down — a quorum on the other
    /// side of a partition may already follow a newer leader, so
    /// continuing to serve reads or validate proposals here would use
    /// stale state.
    fn replicate(&mut self) -> bool {
        let round = self.next_round();
        let mut msg = vec![M_APPEND];
        put_u64(&mut msg, self.term);
        msg.extend_from_slice(&(self.r as u32).to_le_bytes());
        put_u64(&mut msg, self.version.0);
        put_u64(&mut msg, self.version.1);
        put_u64(&mut msg, round);
        msg.extend_from_slice(&self.state.encode());

        let mut acks = 1usize; // self
        for p in 0..self.n_replicas {
            if p == self.r {
                continue;
            }
            // A backed-off peer counts as silent (no ack) this round —
            // conservative for both the commit and the majority
            // confirmation, never optimistic.
            if sim::now() < self.peer_backoff[p] {
                continue;
            }
            self.stats.appends.inc();
            let deadline = sim::now() + PEER_RPC;
            let reply = (|| {
                let qp = self.peer_qp(p)?;
                qp.send(msg.clone()).ok()?;
                recv_round(qp, round, deadline).ok()
            })();
            match reply {
                Some(b) => {
                    self.peer_backoff[p] = 0;
                    let term = get_u64(&b, 1).unwrap_or(0);
                    if term > self.term {
                        self.adopt_term(term);
                        return false;
                    }
                    if b.get(9) == Some(&1) {
                        acks += 1;
                    }
                }
                None => {
                    self.peers[p] = None;
                    self.peer_backoff[p] = sim::now() + 3 * HEARTBEAT_EVERY;
                }
            }
        }
        if acks < self.majority() {
            self.is_leader = false;
            self.last_contact = sim::now();
            return false;
        }
        true
    }

    /// Leader-side proposal: apply `cmd` to the state, bump the version,
    /// persist, and replicate synchronously. `true` iff committed. A
    /// failed round leaves the new state in place, uncommitted, and steps
    /// the leader down.
    fn propose(&mut self, cmd: MetaCmd) -> bool {
        if !self.is_leader {
            return false;
        }
        let epoch = self.state.placement.epoch;
        self.state.apply(&cmd);
        self.version = (self.term, self.version.1 + 1);
        self.persist();
        if !self.replicate() {
            return false;
        }
        self.stats.commits.inc();
        match cmd {
            MetaCmd::NodeDown(_) => {
                self.stats.node_downs.inc();
                // Each shard a `NodeDown` moves bumps the epoch once.
                self.stats
                    .promotions
                    .add(self.state.placement.epoch - epoch);
            }
            MetaCmd::NodeUp(_) => self.stats.node_ups.inc(),
            _ => {}
        }
        true
    }

    fn death_sweep(&mut self) {
        let now = sim::now();
        for i in 0..self.data_nodes {
            if !self.is_leader {
                return; // a failed propose round deposed us mid-sweep
            }
            if self.state.alive[i] && now.saturating_sub(self.last_seen[i]) > DEATH_TIMEOUT {
                self.propose(MetaCmd::NodeDown(i as u32));
            }
        }
    }

    fn dispatch(&mut self, listener: &Listener, from: efactory_rnic::QpId, payload: &[u8]) {
        let reply = match payload.first() {
            Some(&M_REQUEST_VOTE) => self.on_request_vote(payload),
            Some(&M_PRE_VOTE) => self.on_pre_vote(payload),
            Some(&M_APPEND) => self.on_append(payload),
            Some(&M_GET_MAP) => self.on_get_map(),
            Some(&M_PROPOSE) => self.on_propose(payload),
            Some(&M_HEARTBEAT) => self.on_heartbeat(payload),
            _ => return,
        };
        let _ = listener.reply(from, reply);
    }

    /// Whether this replica would vote for `cand` at `term` given its
    /// version: never below its own term, at most one candidate per term,
    /// and only for a version at least its own.
    fn would_vote(&self, term: u64, cand: u32, cand_version: Version) -> bool {
        cand_version >= self.version
            && (term > self.term || (term == self.term && self.voted_for.is_none_or(|v| v == cand)))
    }

    /// The `(term, candidate, version)` of a vote request.
    fn parse_vote(b: &[u8]) -> (u64, u32, Version) {
        (
            get_u64(b, 1).unwrap_or(0),
            get_u32(b, 9).unwrap_or(0),
            (get_u64(b, 13).unwrap_or(0), get_u64(b, 21).unwrap_or(0)),
        )
    }

    /// A reply to the vote request `req`: `op`, this replica's term, the
    /// grant, and the request's round.
    fn vote_reply(&self, op: u8, grant: bool, req: &[u8]) -> Vec<u8> {
        let mut r = vec![op];
        put_u64(&mut r, self.term);
        r.push(grant as u8);
        put_u64(&mut r, get_u64(req, 29).unwrap_or(0));
        r
    }

    fn on_request_vote(&mut self, b: &[u8]) -> Vec<u8> {
        let (term, cand, cand_version) = Self::parse_vote(b);
        self.adopt_term(term);
        let grant = self.would_vote(term, cand, cand_version);
        if grant {
            self.voted_for = Some(cand);
            self.persist();
            self.last_contact = sim::now();
        }
        self.vote_reply(R_VOTE, grant, b)
    }

    /// A pre-vote changes nothing here — no term adopted, no vote
    /// recorded, no timer reset. It is granted iff this replica would
    /// grant the vote and has heard from no leader (itself included)
    /// within [`ELECTION_BASE`].
    fn on_pre_vote(&self, b: &[u8]) -> Vec<u8> {
        let (term, cand, cand_version) = Self::parse_vote(b);
        let heard_leader = self.is_leader
            || self
                .last_leader
                .is_some_and(|t| sim::now().saturating_sub(t) < ELECTION_BASE);
        let grant = !heard_leader && self.would_vote(term, cand, cand_version);
        self.vote_reply(R_PRE_VOTE, grant, b)
    }

    fn on_append(&mut self, b: &[u8]) -> Vec<u8> {
        let term = get_u64(b, 1).unwrap_or(0);
        let mut ok = false;
        if term >= self.term {
            self.adopt_term(term);
            self.is_leader = false;
            self.leader_hint = get_u32(b, 9).unwrap_or(0);
            self.last_contact = sim::now();
            self.last_leader = Some(self.last_contact);
            let version = get_u64(b, 13).zip(get_u64(b, 21));
            if let (Some(version), Some(state)) = (version, b.get(37..).and_then(MetaState::decode))
            {
                self.version = version;
                self.state = state;
                self.persist();
                ok = true;
            }
        }
        let mut r = vec![R_APPEND_ACK];
        put_u64(&mut r, self.term);
        r.push(ok as u8);
        put_u64(&mut r, get_u64(b, 29).unwrap_or(0));
        r
    }

    /// The `NotLeader` reply to a client RPC: status and leader hint.
    fn not_leader(&self, op: u8) -> Vec<u8> {
        let mut r = vec![op, S_NOT_LEADER];
        r.extend_from_slice(&self.leader_hint.to_le_bytes());
        r
    }

    fn on_get_map(&mut self) -> Vec<u8> {
        // Read-index: confirm leadership with a majority round before
        // answering. A deposed leader partitioned away from the quorum
        // otherwise serves a placement map that predates commits on the
        // other side — e.g. telling a migration driver its commit
        // "provably did not land" while the real leader flipped
        // ownership, double-owning the shard.
        if !(self.is_leader && self.replicate()) {
            return self.not_leader(R_MAP);
        }
        self.stats.getmaps.inc();
        let mut r = vec![R_MAP, S_OK];
        r.extend_from_slice(&self.state.encode());
        r
    }

    fn on_propose(&mut self, b: &[u8]) -> Vec<u8> {
        if !self.is_leader {
            return self.not_leader(R_PROPOSE);
        }
        let mut r = vec![R_PROPOSE];
        let Some((cmd, _)) = MetaCmd::decode(&b[1..]) else {
            r.push(S_REJECTED);
            return r;
        };
        // Distinguish "invalid" from "no majority reachable".
        let mut probe = self.state.clone();
        probe.apply(&cmd);
        if probe == self.state {
            self.stats.rejects.inc();
            r.push(S_REJECTED);
        } else if self.propose(cmd) {
            r.push(S_OK);
            r.extend_from_slice(&self.state.encode());
        } else {
            r.push(S_UNAVAILABLE);
        }
        r
    }

    /// Note a data node's heartbeat and answer with the state, which the
    /// node's agent acts on (see [`MetaClient::heartbeat`]). A leader only
    /// serves while its last replication round held a majority, so the
    /// state it answers with was committed.
    fn on_heartbeat(&mut self, b: &[u8]) -> Vec<u8> {
        if !self.is_leader {
            return self.not_leader(R_HEARTBEAT_ACK);
        }
        let node = get_u32(b, 1).unwrap_or(u32::MAX) as usize;
        if node < self.data_nodes {
            self.stats.heartbeats.inc();
            self.last_seen[node] = sim::now();
            if !self.state.alive[node] && !self.propose(MetaCmd::NodeUp(node as u32)) {
                return self.not_leader(R_HEARTBEAT_ACK);
            }
        }
        let mut r = vec![R_HEARTBEAT_ACK, S_OK];
        r.extend_from_slice(&self.state.encode());
        r
    }
}

// ---------------------------------------------------------------------
// Client side: a small leader-following RPC wrapper shared by node
// agents, the migration driver, and the cluster client.
// ---------------------------------------------------------------------

/// Outcome of a proposal as seen by a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProposeOutcome {
    /// Committed; the reply carries the post-apply state.
    Committed(MetaState),
    /// Leader-side validation rejected it (e.g. a migration is already in
    /// flight, or the destination is down).
    Rejected,
    /// No leader reachable / no majority within the deadline.
    Unavailable,
}

/// A connection to the metadata service that tracks the current leader.
pub struct MetaClient {
    fabric: Arc<Fabric>,
    local: Node,
    nodes: Vec<Node>,
    /// Cached (replica index, qp) of the presumed leader.
    conn: Option<(usize, ClientQp)>,
    /// Per-try reply deadline.
    rpc_timeout: Nanos,
}

impl MetaClient {
    /// A client of the service, issuing RPCs from `local`.
    pub fn new(fabric: &Arc<Fabric>, local: &Node, meta_nodes: &[Node]) -> MetaClient {
        MetaClient {
            fabric: Arc::clone(fabric),
            local: local.clone(),
            nodes: meta_nodes.to_vec(),
            conn: None,
            rpc_timeout: sim::micros(100),
        }
    }

    /// One RPC against replica `r`; `None` on any transport failure, which
    /// also drops the connection.
    fn try_rpc(&mut self, r: usize, req: &[u8]) -> Option<Vec<u8>> {
        if self.conn.as_ref().map(|(i, _)| *i) != Some(r) {
            self.conn = self
                .fabric
                .connect(&self.local, &self.nodes[r])
                .ok()
                .map(|qp| (r, qp));
        }
        let qp = &self.conn.as_ref()?.1;
        let deadline = sim::now() + self.rpc_timeout;
        let reply = qp
            .send(req.to_vec())
            .ok()
            .and_then(|_| qp.recv_reply_deadline(deadline).ok());
        if reply.is_none() {
            self.conn = None;
        }
        reply
    }

    /// Run `req` against the service until `deadline`, starting at the
    /// presumed leader and following `NotLeader` hints. `parse` maps the
    /// `(status, body)` of a `reply_op` reply to `Some(T)`, or to `None`
    /// (malformed: try the next replica).
    fn leader_rpc<T>(
        &mut self,
        req: &[u8],
        reply_op: u8,
        deadline: Nanos,
        parse: impl Fn(u8, &[u8]) -> Option<T>,
    ) -> Option<T> {
        let mut r = self.conn.as_ref().map(|(i, _)| *i).unwrap_or(0);
        loop {
            if sim::now() >= deadline {
                return None;
            }
            let mut hint = None;
            if let Some(b) = self
                .try_rpc(r, req)
                .filter(|b| b.first() == Some(&reply_op))
            {
                match b.get(1) {
                    Some(&S_NOT_LEADER) => hint = get_u32(&b, 2).map(|h| h as usize),
                    Some(&status) => {
                        if let Some(t) = parse(status, &b[2..]) {
                            return Some(t);
                        }
                    }
                    None => {}
                }
            }
            let n = self.nodes.len();
            r = hint.filter(|&h| h < n && h != r).unwrap_or((r + 1) % n);
            self.conn = None;
            sim::sleep(sim::micros(5));
        }
    }

    /// Fetch the committed control-plane state from the leader.
    pub fn get_map(&mut self, deadline: Nanos) -> Option<MetaState> {
        self.leader_rpc(&[M_GET_MAP], R_MAP, deadline, |status, body| {
            if status == S_OK {
                MetaState::decode(body)
            } else {
                None
            }
        })
    }

    /// Propose `cmd`; `Committed` carries the post-apply state.
    pub fn propose(&mut self, cmd: &MetaCmd, deadline: Nanos) -> ProposeOutcome {
        let mut req = vec![M_PROPOSE];
        req.extend_from_slice(&cmd.encode());
        let out = self.leader_rpc(&req, R_PROPOSE, deadline, |status, body| match status {
            S_OK => MetaState::decode(body).map(ProposeOutcome::Committed),
            S_REJECTED => Some(ProposeOutcome::Rejected),
            S_UNAVAILABLE => Some(ProposeOutcome::Unavailable),
            _ => None,
        });
        out.unwrap_or(ProposeOutcome::Unavailable)
    }

    /// One heartbeat for data node `node`, answered with the leader's
    /// committed state. `None` when no leader acknowledged (caller just
    /// tries again next period).
    pub fn heartbeat(&mut self, node: usize, deadline: Nanos) -> Option<MetaState> {
        let mut req = vec![M_HEARTBEAT];
        req.extend_from_slice(&(node as u32).to_le_bytes());
        self.leader_rpc(&req, R_HEARTBEAT_ACK, deadline, |status, body| {
            (status == S_OK).then(|| MetaState::decode(body)).flatten()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmd_encoding_roundtrips() {
        let cmds = [
            MetaCmd::NodeDown(3),
            MetaCmd::NodeUp(0),
            MetaCmd::MigrateStart { shard: 7, to: 2 },
            MetaCmd::MigrateCommit { shard: 7 },
            MetaCmd::MigrateAbort { shard: 1 },
            MetaCmd::BackupLost { shard: 2 },
        ];
        for c in &cmds {
            let b = c.encode();
            let (d, used) = MetaCmd::decode(&b).unwrap();
            assert_eq!(&d, c);
            assert_eq!(used, b.len());
        }
    }

    #[test]
    fn state_encoding_roundtrips() {
        let mut s = MetaState::initial(8, 4, 1);
        s.alive[2] = false;
        s.migrating = Some((5, 3));
        s.backups[6] = None;
        let b = s.encode();
        assert_eq!(MetaState::decode(&b).unwrap(), s);
        let s = MetaState::initial(2, 1, 0);
        assert_eq!(MetaState::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn apply_is_total_and_guards_invariants() {
        let mut s = MetaState::initial(4, 3, 0);
        // Start to a dead node: rejected (no-op).
        s.alive[2] = false;
        s.apply(&MetaCmd::MigrateStart { shard: 0, to: 2 });
        assert_eq!(s.migrating, None);
        s.alive[2] = true;
        // Start to self: no-op (shard 1 lives on node 1 initially).
        s.apply(&MetaCmd::MigrateStart { shard: 1, to: 1 });
        assert_eq!(s.migrating, None);
        // Valid start, then a second start is refused.
        s.apply(&MetaCmd::MigrateStart { shard: 0, to: 2 });
        assert_eq!(s.migrating, Some((0, 2)));
        s.apply(&MetaCmd::MigrateStart { shard: 3, to: 1 });
        assert_eq!(s.migrating, Some((0, 2)));
        // Commit flips ownership and bumps the epoch.
        let e0 = s.placement.epoch;
        s.apply(&MetaCmd::MigrateCommit { shard: 0 });
        assert_eq!(s.placement.node_of_shard(0), 2);
        assert_eq!(s.placement.epoch, e0 + 1);
        assert_eq!(s.migrating, None);
        // Death of a migration endpoint aborts the migration.
        s.apply(&MetaCmd::MigrateStart { shard: 3, to: 2 });
        s.apply(&MetaCmd::NodeDown(2));
        assert_eq!(s.migrating, None);
        assert!(!s.alive[2]);
        s.apply(&MetaCmd::NodeUp(2));
        assert!(s.alive[2]);
    }

    #[test]
    fn node_down_promotes_only_in_sync_backups() {
        // Two data nodes, four shards: node 0 owns 0 and 2, node 1 owns 1
        // and 3, and each backup sits on the other node.
        let mut s = MetaState::initial(4, 2, 1);
        assert_eq!(s.backups, vec![Some(1), Some(0), Some(1), Some(0)]);
        // A migration may not land on the shard's in-sync backup.
        s.apply(&MetaCmd::MigrateStart { shard: 0, to: 1 });
        assert_eq!(s.migrating, None);
        // Shard 2's mirror failed: its backup may never be promoted.
        s.apply(&MetaCmd::BackupLost { shard: 2 });
        s.apply(&MetaCmd::NodeDown(0));
        assert_eq!(s.placement.assignment, vec![1, 1, 0, 1]);
        assert_eq!(s.placement.epoch, 1, "one epoch bump per promotion");
        assert_eq!(s.backups, vec![None; 4]);
        // A one-node store with backups gets a backup-only second node.
        let one = MetaState::initial(2, 1, 1);
        assert_eq!(one.alive.len(), 2);
        assert_eq!(one.placement.assignment, vec![0, 0]);
        assert_eq!(one.backups, vec![Some(1), Some(1)]);
        // A migration commit leaves the moved shard without a backup.
        let mut m = MetaState::initial(2, 3, 1);
        m.apply(&MetaCmd::MigrateStart { shard: 0, to: 2 });
        m.apply(&MetaCmd::MigrateCommit { shard: 0 });
        assert_eq!(m.placement.node_of_shard(0), 2);
        assert_eq!(m.backups, vec![None, Some(2)]);
    }
}
