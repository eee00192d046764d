//! # efactory-rnic — a simulated RDMA fabric
//!
//! Stands in for the Mellanox ConnectX-5 InfiniBand fabric of the paper's
//! testbed. Runs entirely on the deterministic discrete-event simulator
//! ([`efactory_sim`]) and targets the *semantics* that matter for remote
//! crash consistency rather than packet-level realism:
//!
//! * **Two-sided verbs** (`send`/reply) deliver messages into a server
//!   [`Listener`] after a modeled one-way delay; picking a message up
//!   charges the server per-message receive-posting CPU, the cost eFactory's
//!   batched receive regions reduce.
//! * **One-sided verbs** (`rdma_read`, `rdma_write`, `rdma_write_imm`)
//!   access registered memory ([`RemoteMr`], rkey- and bounds-checked)
//!   without any server CPU involvement. An RDMA-write ack means only that
//!   the NIC received the data: the bytes land in the *working* (volatile)
//!   image of the target [`efactory_pmem::PmemPool`] and stay unflushed.
//! * **Crash injection** ([`Fabric::crash_node`]) tears in-flight writes at
//!   cache-line granularity, resolves dirty lines per a
//!   [`efactory_pmem::CrashSpec`], and makes the node stop acking until
//!   [`Fabric::restart_node`].
//!
//! All virtual-time charges come from one [`CostModel`], calibrated against
//! the paper's baseline measurements (see `DESIGN.md` §6).

mod cost;
mod fabric;
mod fault;

pub use cost::CostModel;
pub use fabric::{
    ClientQp, DoorbellChain, Fabric, FabricStats, Incoming, Listener, Node, NodeId, Notifier,
    QpError, QpId, RemoteMr, Replier, VerbProbe,
};
pub use fault::FaultPlan;
