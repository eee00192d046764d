//! **IMM** — durable remote write via `write_with_imm` (paper §3, after
//! Orion's strategy): the client allocates via RPC, then transfers the
//! value with RDMA write-with-immediate. The immediate field tells the
//! server *which* write completed, so it can flush the data into NVM and
//! only then expose the metadata and ack the client. One round trip fewer
//! than SAW, but the server CPU still sits on every write's critical path.
//!
//! GET: two one-sided RDMA reads, unverified (entries reference only
//! durable objects).

use std::sync::Arc;

use efactory::protocol::StoreError;
use efactory_rnic::Fabric;
use efactory_sim as sim;

use crate::client::{ack, BaselineClient};
use crate::common::{spawn_staged, BaseServer, Trigger};

/// Spawn the staged-completion server: allocation dispatch, and a
/// completion-queue worker that handles each write_with_imm completion
/// (completion-event handling + request processing, then flush + metadata
/// link + ack). Call from within a sim process.
pub(crate) fn start(base: Arc<BaseServer>, fabric: &Fabric) {
    let completion_cost = base.cost.cpu_imm_completion_ns + base.cost.cpu_req_handle_ns;
    spawn_staged(base, fabric, "imm", Trigger::WriteImm, completion_cost);
}

/// RPC alloc → write_with_imm → server flushes + links → ack. Durable on
/// return.
pub(crate) fn put(c: &BaselineClient, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
    let (obj_off, value_off) = c.alloc(key, value)?;
    // The immediate carries the object offset back to the server.
    c.qp.rdma_write_imm(
        &c.desc.mr,
        value_off as usize,
        value.to_vec(),
        obj_off as u32,
    )?;
    // Wait for the server's durability ack.
    ack(&c.qp.recv_reply_deadline(sim::now() + sim::millis(100))?)
}
