//! # efactory-sim — deterministic discrete-event simulation kernel
//!
//! The eFactory reproduction runs distributed-systems experiments (an RDMA
//! fabric, a persistent-memory server, many concurrent clients) on a single
//! host without the paper's hardware. This crate provides the substrate that
//! makes that possible: a **virtual clock** and a set of **simulated
//! processes** that execute one at a time in a deterministic order.
//!
//! ## Model
//!
//! * A [`Sim`] owns a virtual clock (nanoseconds, starting at 0) and an event
//!   queue ordered by `(time, sequence-number)`.
//! * A *process* ([`spawn`](Sim::spawn)) runs ordinary blocking Rust code,
//!   but every blocking operation — [`sleep`], [`Receiver::recv`],
//!   [`ProcessHandle::join`] — parks the process and hands control back to
//!   the driver. Exactly one process executes at any moment, so execution is
//!   fully serialized and deterministic, independent of the host's core
//!   count or scheduler. Processes are hosted either as user-space *fibers*
//!   on the driver thread (default — a grant costs one register-swap context
//!   switch) or as one OS thread each (the original executor, kept for
//!   equivalence testing and portability); see [`ExecModel`]. Both backends
//!   produce bit-identical event orders.
//! * [`channel`] / [`Sim::channel`] build MPMC channels whose sends carry a
//!   **virtual latency**: `tx.send(msg, delay)` makes the message visible to
//!   receivers `delay` virtual nanoseconds later. These model wires, NIC
//!   completion queues, and RPC transports.
//! * CPU time is modeled explicitly: a process calls [`work`] (an alias of
//!   [`sleep`]) to account for the virtual cost of a computation. Because
//!   processes never share a simulated core, `work` by one process does not
//!   slow another — mirroring the paper's testbed, where the request handler,
//!   background verifier, and cleaner each own a physical core.
//!
//! Time advances only through the event queue; wall-clock time is never
//! consulted. Running the same setup twice produces identical traces, which
//! the crash-consistency tests exploit to inject crashes at exact virtual
//! instants.
//!
//! ## Example
//!
//! ```
//! use efactory_sim::{Sim, RunOutcome};
//!
//! let mut sim = Sim::new(42);
//! let (tx, rx) = sim.channel::<u32>();
//! sim.spawn("producer", move || {
//!     efactory_sim::sleep(1_000);
//!     tx.send(7, 500).unwrap(); // arrives at t = 1_500
//! });
//! sim.spawn("consumer", move || {
//!     let v = rx.recv().unwrap();
//!     assert_eq!(v, 7);
//!     assert_eq!(efactory_sim::now(), 1_500);
//! });
//! assert!(matches!(sim.run(), RunOutcome::Completed { .. }));
//! ```

mod chan;
mod fiber;
mod kernel;
mod time;

pub use chan::{channel, Receiver, RecvError, RecvTimeoutError, SendError, Sender, TryRecvError};
pub use kernel::{
    call_at, now, op_ctx_get, op_ctx_replace, sleep, sleep_until, spawn, try_now, work, yield_now,
    ExecModel, Pid, ProcessHandle, RunOutcome, Sim, SimCounters,
};
pub use time::{micros, millis, secs, Nanos};
