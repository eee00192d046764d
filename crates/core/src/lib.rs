//! # efactory — fast and consistent remote direct access to non-volatile memory
//!
//! Reproduction of the eFactory system (Du, Wang, Feng, Li, Li — ICPP 2021):
//! a multi-version, log-structured remote key-value store over RDMA + NVM
//! that provides crash consistency without giving up read or write
//! performance.
//!
//! The three ideas, and where they live:
//!
//! 1. **Multi-version log structuring** ([`layout`], [`log`],
//!    [`hashtable`]) — objects are updated out-of-place in an append-only
//!    data pool; each key's versions form a linked list headed by a hash
//!    entry, so a previous intact version is always reachable for recovery.
//! 2. **Background verification and persisting** ([`verifier`],
//!    [`server`]) — PUTs use the client-active scheme (server only
//!    allocates and updates metadata; the client DMAs the value with a
//!    one-sided RDMA write) with *asynchronous* durability: a single
//!    background process CRC-verifies landed values and flushes them to
//!    NVM, setting the durability flag embedded in the object. CRC and
//!    flush costs vanish from both critical paths.
//! 3. **Hybrid read** ([`client`]) — GETs first try the pure one-sided
//!    path (read hash entry, read object, check the durability flag); only
//!    objects the background process has not yet persisted fall back to the
//!    RPC+RDMA path, where the server persists on demand ("selective
//!    durability guarantee") before exposing the object.
//!
//! Log cleaning ([`cleaner`]) reclaims stale versions with the paper's
//! two-stage compress/merge scheme over dual data pools, while serving
//! requests; [`recovery`] rebuilds a consistent store from the post-crash
//! media image.
//!
//! Around that `Client`/`Server` pair, a [`Store`] shards the key space
//! over several servers: on one data node without backups, or under the
//! control plane of [`cluster`] — on several data nodes, or with each
//! shard mirrored to a backup ([`repl`]) that the metadata service alone
//! may promote. Each shard's location is one seat in the store's seat
//! table, and one routed [`StoreClient`] drives every shape.
//!
//! The comparison systems of the paper (SAW, IMM, Erda, Forca, …) are built
//! on these same modules in the `efactory-baselines` crate.
//!
//! Everything runs on simulated substrates (`efactory-sim`,
//! `efactory-pmem`, `efactory-rnic`) — see `DESIGN.md` at the repository
//! root for the substitution rationale.

pub mod cleaner;
pub mod client;
pub mod cluster;
pub mod hashtable;
pub mod inspect;
pub mod layout;
pub mod log;
pub mod pipeline;
pub mod protocol;
pub mod recovery;
pub mod repl;
pub mod scrub;
pub mod server;
pub mod store;
pub mod txn;
pub mod verifier;

pub use client::{Client, ClientConfig, GetOutcome, RemoteKv};
pub use cluster::placement::{key_shard, PlacementMap};
pub use cluster::MigrationReport;
pub use pipeline::{OpCompletion, OpKind, PipelineConfig, PipelinedClient};
pub use protocol::{Status, StoreError};
pub use repl::{Backup, ReplStats, ReplTarget};
pub use server::{Server, ServerConfig, ServerStats, StoreDesc};
pub use store::{Routes, Seat, Store, StoreClient};
pub use txn::{TxnKv, TxnSnapshot};
