//! # efactory-baselines — the paper's comparison systems
//!
//! All five prior designs the eFactory paper evaluates against (§5.3),
//! implemented on the same code base as eFactory itself (the data
//! structures, protocol, and substrates from the `efactory` crate), exactly
//! as the authors did for their apples-to-apples comparison:
//!
//! | System | PUT | GET | Durability of a PUT |
//! |---|---|---|---|
//! | [`ca_noper`] | RPC alloc + RDMA write | 2 RDMA reads, unverified | none |
//! | [`rpc_store`] | value through RPC; server copies + flushes | RPC + RDMA read | on ack |
//! | [`saw`] | RPC alloc + RDMA write + RDMA send (persist) | 2 RDMA reads | on ack |
//! | [`imm`] | RPC alloc + write_with_imm; server flushes | 2 RDMA reads | on ack |
//! | [`erda`] | RPC alloc + RDMA write; 8-byte atomic metadata | 2 RDMA reads + client CRC (+1 fallback read) | never explicit |
//! | [`forca`] | like Erda + metadata indirection | RPC (server CRC + persist) + RDMA read | on first read |
//!
//! One server type, [`BaselineServer`], and one client type,
//! [`BaselineClient`], serve all six: each pairs the system's [`Baseline`]
//! kind with the shared single-pool store or queue pair. The per-system
//! modules hold only what differs — the handler processes, the PUT, and
//! the GET.
//!
//! eFactory itself (background verification, durability flag, hybrid read)
//! lives in the `efactory` crate; "eFactory w/o hybrid read" is its client
//! with `hybrid_read: false`.

pub mod ca_noper;
mod client;
mod common;
pub mod erda;
pub mod forca;
pub mod imm;
pub mod rpc_store;
pub mod saw;

use std::sync::Arc;

use efactory::log::StoreLayout;
use efactory::server::ServerStats;
use efactory_pmem::PmemPool;
use efactory_rnic::{Fabric, Node};

pub use client::BaselineClient;
pub use common::baseline_layout;
use common::BaseServer;

/// The comparison systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// Send-after-write ([`saw`]).
    Saw,
    /// write_with_imm ([`imm`]).
    Imm,
    /// Erda, client-side CRC ([`erda`]).
    Erda,
    /// Forca, server-side CRC on reads ([`forca`]).
    Forca,
    /// Client-active without persistence ([`ca_noper`]).
    CaNoper,
    /// Plain RPC store ([`rpc_store`]).
    Rpc,
}

/// A comparison system's server: its kind over the shared single-pool
/// store. Cloning shares the store.
#[derive(Clone)]
pub struct BaselineServer {
    kind: Baseline,
    base: Arc<BaseServer>,
}

impl BaselineServer {
    /// Format a fresh store for `kind` on `node`.
    pub fn format(kind: Baseline, fabric: &Fabric, node: &Node, layout: StoreLayout) -> Self {
        if kind == Baseline::Imm {
            // The immediate field is 32 bits and carries the object offset.
            assert!(
                layout.total_len() < u32::MAX as usize,
                "IMM requires the pool offset to fit the 32-bit immediate"
            );
        }
        BaselineServer {
            kind,
            base: BaseServer::format(fabric, node, layout),
        }
    }

    /// Rebuild after a crash (see `BaseServer::recover`). SAW, IMM and
    /// RPC metadata only ever references durable data; Erda and Forca
    /// values are not repaired — their reads self-heal through CRC
    /// fallback, which is precisely what makes Erda's reads
    /// non-monotonic.
    pub fn recover(
        kind: Baseline,
        fabric: &Fabric,
        node: &Node,
        pool: Arc<PmemPool>,
        layout: StoreLayout,
    ) -> Self {
        BaselineServer {
            kind,
            base: BaseServer::recover(fabric, node, pool, layout),
        }
    }

    /// The NVM device.
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.base.pool
    }

    /// Server counters (the core definitions).
    pub fn stats(&self) -> &ServerStats {
        &self.base.stats
    }

    /// Stop serving.
    pub fn shutdown(&self) {
        self.base.shutdown();
    }

    /// Spawn the system's server processes. Call from within a sim
    /// process.
    pub fn start(&self, fabric: &Arc<Fabric>) {
        let base = Arc::clone(&self.base);
        match self.kind {
            Baseline::Saw => saw::start(base, fabric),
            Baseline::Imm => imm::start(base, fabric),
            Baseline::Erda => erda::start(base, fabric),
            Baseline::Forca => forca::start(base, fabric),
            Baseline::CaNoper => ca_noper::start(base, fabric),
            Baseline::Rpc => rpc_store::start(base, fabric),
        }
    }
}
