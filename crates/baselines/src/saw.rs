//! **SAW (send-after-write)** — durable remote write via an RDMA write
//! followed by an extra RDMA send (paper §3, after Douglas's SDC'15
//! mechanism): the client allocates via RPC, DMAs the value, then sends a
//! *persist* request; only when the server has flushed the object does it
//! expose the metadata and ack. Durable on ack, at the price of a second
//! full round trip and server CPU on every write.
//!
//! GET: two one-sided RDMA reads with no verification — safe, because the
//! hash entry is only ever updated after the data is durable.

use std::sync::Arc;

use efactory::protocol::{Request, StoreError};
use efactory_rnic::Fabric;

use crate::client::{ack, BaselineClient};
use crate::common::{spawn_staged, BaseServer, Trigger};

/// Spawn the staged-completion server: allocation dispatch, and a persist
/// worker that handles each `Persist` request (flush + metadata link +
/// ack). Call from within a sim process.
pub(crate) fn start(base: Arc<BaseServer>, fabric: &Fabric) {
    let persist_cost = base.cost.cpu_req_handle_ns;
    spawn_staged(base, fabric, "saw", Trigger::PersistRpc, persist_cost);
}

/// RPC alloc → RDMA write → RDMA send (persist) → ack. Durable on return.
pub(crate) fn put(c: &BaselineClient, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
    let (obj_off, value_off) = c.alloc(key, value)?;
    c.write_value(value_off, value)?;
    ack(&c.qp.rpc(Request::Persist { obj_off }.encode())?)
}
