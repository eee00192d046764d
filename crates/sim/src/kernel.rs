//! The simulation kernel: virtual clock, event queue, and the process
//! scheduler.
//!
//! # Scheduling protocol
//!
//! Only one simulated process ever executes simulated code at a time. The
//! *driver* (the thread that calls [`Sim::run`]) pops events in `(time, seq)`
//! order. A `Wake` event hands execution to one process and the driver
//! regains control when that process *yields* (parks in [`sleep`], a channel
//! receive, a join — or exits). A `Call` event runs a closure on the driver
//! thread itself; closures are used for effects that must happen at an exact
//! virtual instant without a dedicated process (e.g. a NIC applying DMA bytes
//! at message-arrival time). A `WakeAll` event wakes every waiter parked on a
//! shared structure (a channel) without allocating a closure per send.
//!
//! # Execution backends
//!
//! Two interchangeable executors implement the grant/yield handoff (selected
//! by [`ExecModel`]; [`Sim::new`] takes fibers where they are supported and
//! threads elsewhere, [`Sim::with_exec`] pins one):
//!
//! - **Fiber** (default): every process is a user-space stackful coroutine
//!   hosted *on the driver thread*; a grant is a register-swap context switch
//!   (see [`crate::fiber`] — tens of nanoseconds).
//! - **Thread**: the original executor — every process is an OS thread and a
//!   grant is a Condvar park/wake round trip (microseconds). Kept as the
//!   equivalence baseline and as the fallback on targets without a fiber
//!   context switch.
//!
//! Both backends drive the same event queue, ticket protocol, and process
//! lifecycle, so the observable execution — event order, virtual times,
//! trace bytes, run reports — is identical; `tests/sim_equivalence.rs` and
//! the in-crate tests pin that bit-for-bit.
//!
//! # Tickets
//!
//! A parked process may have several pending wake-ups (a receive timeout plus
//! a message delivery, say). Each park instance is identified by a *ticket*;
//! wake events carry the ticket they target and the driver silently discards
//! wakes whose ticket is stale. A process bumps its ticket every time it
//! prepares to park, which makes "wake me for reason A or reason B,
//! whichever is first" race-free without any cancellation machinery.
//!
//! # Allocation discipline
//!
//! The hot path recycles aggressively: event payloads live in a slab indexed
//! by the binary heap (slots are freelisted, so steady-state scheduling
//! allocates nothing), channel sends schedule an `Arc`-shared `WakeAll`
//! instead of boxing a closure, and same-tick events are drained in one
//! batch per queue-lock acquisition. [`Sim::counters`] exposes the resulting
//! [`SimCounters`] so benches and reports can audit both throughput
//! (`events_dispatched`) and allocator behavior (`allocs` vs `slab_reused`).

use std::cell::RefCell;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use crate::fiber::{self, FiberSlot};
use crate::time::Nanos;

/// Identifier of a simulated process, unique within one [`Sim`].
pub type Pid = usize;

// ---------------------------------------------------------------------------
// Execution model
// ---------------------------------------------------------------------------

/// Which executor hosts simulated processes. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecModel {
    /// Stackful user-space fibers run inline by the driver thread. Default
    /// where supported (x86_64 SysV targets).
    Fiber,
    /// One OS thread per process, Condvar handoff per grant. The original
    /// executor; kept as the equivalence baseline and portable fallback.
    Thread,
}

impl ExecModel {
    /// Degrade to a supported model (fibers need the arch-specific switch).
    fn resolve(self) -> ExecModel {
        match self {
            ExecModel::Fiber if !fiber::SUPPORTED => ExecModel::Thread,
            m => m,
        }
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// Driver-thread closure payload of a `Call` event.
pub(crate) type CallFn = Box<dyn FnOnce(&Arc<Kernel>) + Send>;

/// A structure whose parked waiters are woken by a `WakeAll` event — the
/// allocation-free replacement for the boxed closure a channel send used to
/// schedule (the `Arc` is shared with the channel itself, so scheduling a
/// send costs zero heap allocations at steady state).
pub(crate) trait WakeTarget: Send + Sync {
    /// Wake every waiter parked on `self` at the current virtual time.
    fn wake_all(&self, kernel: &Arc<Kernel>);
}

pub(crate) enum EventKind {
    /// Grant execution to process `pid`, provided its park ticket still
    /// equals `ticket`.
    Wake { pid: Pid, ticket: u64 },
    /// Wake every waiter of a shared structure (channel delivery).
    WakeAll(Arc<dyn WakeTarget>),
    /// Run a closure on the driver thread at the event's virtual time.
    Call(CallFn),
}

/// Heap entry: ordering key plus the slab slot holding the payload. Keeping
/// the payload out of the heap makes sift operations move 24 bytes instead
/// of a full event, and lets slots be freelisted.
struct HeapKey {
    at: Nanos,
    seq: u64,
    slot: u32,
}

// `BinaryHeap` is a max-heap; invert the ordering to pop the earliest
// `(at, seq)` first. `seq` is assigned by the kernel at scheduling time, so
// simultaneous events fire in the order they were scheduled — the property
// that makes the whole simulation deterministic.
impl PartialEq for HeapKey {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for HeapKey {}
impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

// ---------------------------------------------------------------------------
// Processes
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    /// Parked, waiting for a grant.
    Idle,
    /// Granted execution; the driver is waiting for it to yield.
    Run,
    /// The process function returned (or panicked).
    Exited,
    /// The simulation is being torn down; parked processes must unwind.
    Abort,
}

struct ProcSync {
    phase: Phase,
    /// Current park ticket. Only the owning process increments it (while
    /// running); the driver reads it to discard stale wakes.
    ticket: u64,
}

/// Backend-specific half of a process: how the driver hands it execution.
enum ProcImpl {
    /// OS thread; the driver signals `cv` and waits on it for the yield.
    Thread { cv: Condvar },
    /// Fiber; the driver context-switches into it (see [`crate::fiber`]).
    Fiber(FiberSlot),
}

struct Proc {
    name: String,
    sync: Mutex<ProcSync>,
    imp: ProcImpl,
    /// Per-process context slot for cross-cutting layers (the tracer keeps
    /// the active op id here). With the fiber backend all processes share
    /// one OS thread, so "per-thread" state must live per *process*; the
    /// driver exposes it via [`op_ctx_get`]/[`op_ctx_replace`]. Atomic only
    /// because `Proc` is `Sync`; access is serialized by the grant protocol.
    op_ctx: AtomicU64,
}

struct ProcMeta {
    exited: bool,
    /// Processes blocked in `join` on this one: `(pid, ticket)` to wake.
    joiners: Vec<(Pid, u64)>,
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Kernel hot-path counters, monotone over the life of a [`Sim`].
///
/// Everything except `stack_bytes` is a function of the deterministic event
/// sequence alone and therefore identical across executors — run reports
/// embed these, and the cross-backend equivalence suite relies on that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Events pushed into the queue (wakes, calls, channel deliveries).
    pub events_scheduled: u64,
    /// Events popped and acted on (includes stale wakes).
    pub events_dispatched: u64,
    /// Driver-thread `Call` closures run.
    pub calls: u64,
    /// `WakeAll` (channel delivery) events run.
    pub chan_wakes: u64,
    /// Wake events discarded because the park ticket was stale.
    pub wakes_stale: u64,
    /// Execution grants to a process (fiber switch or thread handoff).
    pub ctx_switches: u64,
    /// Event-slab slot allocations (slab growth). Steady state schedules
    /// into recycled slots, so this plateaus at the high-water mark of the
    /// event queue.
    pub allocs: u64,
    /// Events scheduled into a recycled slab slot.
    pub slab_reused: u64,
    /// Fiber stack bytes allocated (0 on the thread backend) — the one
    /// backend-dependent counter, excluded from equivalence comparisons.
    pub stack_bytes: u64,
}

impl SimCounters {
    /// The counters that must match bit-for-bit across executors (drops
    /// `stack_bytes`, the only backend-dependent field).
    pub fn backend_invariant(&self) -> SimCounters {
        SimCounters {
            stack_bytes: 0,
            ..*self
        }
    }
}

/// Counters updated outside the sched lock. The queue-shaped counters
/// (`events_scheduled`, `events_dispatched`, `allocs`, `slab_reused`) live as
/// plain integers on [`Sched`] instead — every update site already holds the
/// lock, so atomic RMWs there would be pure overhead.
#[derive(Default)]
struct KernelStats {
    calls: AtomicU64,
    chan_wakes: AtomicU64,
    wakes_stale: AtomicU64,
    ctx_switches: AtomicU64,
    stack_bytes: AtomicU64,
    /// Cheap failure flag mirroring `Sched::failure`, so the dispatch loop
    /// can poll without taking the queue lock.
    failed: AtomicBool,
}

impl KernelStats {
    fn snapshot(&self, sched: &Sched) -> SimCounters {
        SimCounters {
            events_scheduled: sched.events_scheduled,
            events_dispatched: sched.events_dispatched,
            calls: self.calls.load(Ordering::Relaxed),
            chan_wakes: self.chan_wakes.load(Ordering::Relaxed),
            wakes_stale: self.wakes_stale.load(Ordering::Relaxed),
            ctx_switches: self.ctx_switches.load(Ordering::Relaxed),
            allocs: sched.allocs,
            slab_reused: sched.slab_reused,
            stack_bytes: self.stack_bytes.load(Ordering::Relaxed),
        }
    }

    /// Fold the driver's per-run local tallies into the shared totals. The
    /// dispatch loop counts in plain locals and flushes here on every exit
    /// path, so the per-event cost is an ordinary increment, not an RMW.
    fn fold_dispatch(&self, d: &DispatchTally) {
        if d.calls > 0 {
            self.calls.fetch_add(d.calls, Ordering::Relaxed);
        }
        if d.chan_wakes > 0 {
            self.chan_wakes.fetch_add(d.chan_wakes, Ordering::Relaxed);
        }
        if d.wakes_stale > 0 {
            self.wakes_stale.fetch_add(d.wakes_stale, Ordering::Relaxed);
        }
        if d.ctx_switches > 0 {
            self.ctx_switches
                .fetch_add(d.ctx_switches, Ordering::Relaxed);
        }
    }
}

/// Per-run local counter tallies owned by the dispatch loop.
#[derive(Default)]
struct DispatchTally {
    calls: u64,
    chan_wakes: u64,
    wakes_stale: u64,
    ctx_switches: u64,
}

// ---------------------------------------------------------------------------
// Kernel
// ---------------------------------------------------------------------------

pub(crate) struct Sched {
    pub(crate) now: Nanos,
    next_seq: u64,
    /// Ordering keys; payloads live in `slots`.
    heap: BinaryHeap<HeapKey>,
    /// Event payload slab. `None` = free (on the freelist).
    slots: Vec<Option<EventKind>>,
    free_slots: Vec<u32>,
    meta: Vec<ProcMeta>,
    live: usize,
    failure: Option<String>,
    // Queue-shaped counters; every update site holds the sched lock, so
    // plain integers suffice (see `KernelStats`).
    events_scheduled: u64,
    events_dispatched: u64,
    allocs: u64,
    slab_reused: u64,
}

impl Sched {
    /// Assign the next `seq` and enqueue `kind` at `at` (already clamped).
    fn push(&mut self, at: Nanos, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events_scheduled += 1;
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(kind);
                self.slab_reused += 1;
                s
            }
            None => {
                assert!(self.slots.len() < u32::MAX as usize, "event slab overflow");
                self.slots.push(Some(kind));
                self.allocs += 1;
                (self.slots.len() - 1) as u32
            }
        };
        self.heap.push(HeapKey { at, seq, slot });
    }

    /// Take the payload of a popped key and recycle its slot.
    fn take_slot(&mut self, slot: u32) -> EventKind {
        let kind = self.slots[slot as usize]
            .take()
            .expect("popped event slot is empty");
        self.free_slots.push(slot);
        kind
    }

    /// Re-enqueue an already-popped event with its original `(at, seq)` —
    /// used when a failure interrupts a dispatch batch, so undispatched
    /// events stay queued exactly as the one-at-a-time loop would leave
    /// them.
    fn requeue(&mut self, at: Nanos, seq: u64, kind: EventKind) {
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(kind);
                s
            }
            None => {
                self.slots.push(Some(kind));
                (self.slots.len() - 1) as u32
            }
        };
        self.heap.push(HeapKey { at, seq, slot });
    }
}

pub(crate) struct Kernel {
    exec: ExecModel,
    pub(crate) sched: Mutex<Sched>,
    procs: Mutex<Vec<Arc<Proc>>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    stats: KernelStats,
    /// Mirror of `Sched::now`, updated by the driver whenever the clock
    /// advances. Lets `now()` — called several times per op by tracing and
    /// timeout arithmetic — read the clock without taking the sched lock.
    now_cache: AtomicU64,
}

impl Kernel {
    fn new(exec: ExecModel) -> Arc<Self> {
        Arc::new(Kernel {
            exec,
            sched: Mutex::new(Sched {
                now: 0,
                next_seq: 0,
                heap: BinaryHeap::new(),
                slots: Vec::new(),
                free_slots: Vec::new(),
                meta: Vec::new(),
                live: 0,
                failure: None,
                events_scheduled: 0,
                events_dispatched: 0,
                allocs: 0,
                slab_reused: 0,
            }),
            procs: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
            stats: KernelStats::default(),
            now_cache: AtomicU64::new(0),
        })
    }

    /// Current virtual time.
    #[inline]
    pub(crate) fn now(&self) -> Nanos {
        self.now_cache.load(Ordering::Relaxed)
    }

    /// Schedule `kind` at absolute virtual time `at` (clamped to `now` so an
    /// event can never fire in the past).
    pub(crate) fn schedule(&self, at: Nanos, kind: EventKind) {
        let mut s = self.sched.lock();
        let at = at.max(s.now);
        s.push(at, kind);
    }

    fn record_failure(&self, msg: String) {
        let mut s = self.sched.lock();
        if s.failure.is_none() {
            s.failure = Some(msg);
            self.stats.failed.store(true, Ordering::Relaxed);
        }
    }

    fn proc_arc(&self, pid: Pid) -> Arc<Proc> {
        self.procs.lock()[pid].clone()
    }

    /// Shared exit bookkeeping: drop from `live`, mark exited, wake joiners
    /// at the current virtual time.
    fn finish_process(&self, pid: Pid) {
        let mut s = self.sched.lock();
        s.live -= 1;
        s.meta[pid].exited = true;
        let joiners = std::mem::take(&mut s.meta[pid].joiners);
        let now = s.now;
        for (jpid, jticket) in joiners {
            s.push(
                now,
                EventKind::Wake {
                    pid: jpid,
                    ticket: jticket,
                },
            );
        }
    }

    fn spawn_process<F>(self: &Arc<Self>, name: &str, f: F) -> ProcessHandle
    where
        F: FnOnce() + Send + 'static,
    {
        let proc = Arc::new(Proc {
            name: name.to_string(),
            sync: Mutex::new(ProcSync {
                phase: Phase::Idle,
                ticket: 0,
            }),
            imp: match self.exec {
                ExecModel::Thread => ProcImpl::Thread { cv: Condvar::new() },
                ExecModel::Fiber => ProcImpl::Fiber(FiberSlot::new()),
            },
            op_ctx: AtomicU64::new(0),
        });
        let pid = {
            let mut procs = self.procs.lock();
            procs.push(proc.clone());
            procs.len() - 1
        };
        {
            let mut s = self.sched.lock();
            s.meta.push(ProcMeta {
                exited: false,
                joiners: Vec::new(),
            });
            s.live += 1;
            let now = s.now;
            s.push(now, EventKind::Wake { pid, ticket: 0 });
        }

        match self.exec {
            ExecModel::Fiber => {
                let kernel = Arc::clone(self);
                let proc_ref = Arc::clone(&proc);
                let body: Box<dyn FnOnce() + Send> = Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(f));
                    // The driver thread hosts every fiber, so the quiet-
                    // teardown flag must be re-armed after an AbortToken
                    // unwind (the thread backend simply let the dying
                    // thread take the flag with it).
                    ABORTING.with(|a| a.set(false));
                    if let Err(payload) = result {
                        if payload.downcast_ref::<AbortToken>().is_none() {
                            let msg = payload_to_string(payload.as_ref());
                            kernel.record_failure(format!(
                                "process '{}' panicked: {msg}",
                                proc_ref.name
                            ));
                        }
                    }
                    kernel.finish_process(pid);
                    proc_ref.sync.lock().phase = Phase::Exited;
                });
                let ProcImpl::Fiber(slot) = &proc.imp else {
                    unreachable!()
                };
                slot.set_body(body);
            }
            ExecModel::Thread => {
                let kernel = Arc::clone(self);
                let thread_name = format!("sim:{name}");
                let handle = std::thread::Builder::new()
                    .name(thread_name)
                    .spawn(move || {
                        let ProcImpl::Thread { cv } = &proc.imp else {
                            unreachable!()
                        };
                        // Wait for the first grant before touching user code.
                        {
                            let mut st = proc.sync.lock();
                            while st.phase == Phase::Idle {
                                cv.wait(&mut st);
                            }
                            if st.phase == Phase::Abort {
                                // Torn down before ever running.
                                st.phase = Phase::Exited;
                                cv.notify_all();
                                return;
                            }
                        }
                        CURRENT.with(|c| {
                            *c.borrow_mut() = Some(Current {
                                kernel: Arc::clone(&kernel),
                                pid,
                                proc: Arc::clone(&proc),
                            })
                        });
                        let result = catch_unwind(AssertUnwindSafe(f));
                        CURRENT.with(|c| *c.borrow_mut() = None);
                        if let Err(payload) = result {
                            if payload.downcast_ref::<AbortToken>().is_none() {
                                let msg = payload_to_string(payload.as_ref());
                                kernel.record_failure(format!(
                                    "process '{}' panicked: {msg}",
                                    proc.name
                                ));
                            }
                        }
                        kernel.finish_process(pid);
                        let ProcImpl::Thread { cv } = &proc.imp else {
                            unreachable!()
                        };
                        let mut st = proc.sync.lock();
                        st.phase = Phase::Exited;
                        cv.notify_all();
                    })
                    .expect("failed to spawn simulation process thread");
                self.threads.lock().push(handle);
            }
        }
        ProcessHandle {
            kernel: Arc::clone(self),
            pid,
        }
    }

    /// Grant execution to a parked fiber and return when it yields. Sets
    /// [`CURRENT`] around the switch so process-side primitives resolve.
    /// Callers account the context switch (the dispatch loop tallies it in
    /// a plain local; teardown bumps the atomic directly).
    fn resume_fiber(self: &Arc<Self>, pid: Pid, proc: &Arc<Proc>) {
        let ProcImpl::Fiber(slot) = &proc.imp else {
            unreachable!("resume_fiber on a thread-backed process")
        };
        CURRENT.with(|c| {
            *c.borrow_mut() = Some(Current {
                kernel: Arc::clone(self),
                pid,
                proc: Arc::clone(proc),
            })
        });
        let stack_allocated = unsafe { slot.resume() };
        CURRENT.with(|c| *c.borrow_mut() = None);
        if stack_allocated > 0 {
            self.stats
                .stack_bytes
                .fetch_add(stack_allocated as u64, Ordering::Relaxed);
        }
    }

    // -- process-side primitives (called from within a simulated process) --

    /// Reserve the next park ticket. The caller must register every wake-up
    /// source with this ticket and then call [`Kernel::park`]. Between the
    /// two calls no other process runs (execution is serialized), so wakes
    /// cannot be lost.
    pub(crate) fn prepare_park(&self, pid: Pid) -> u64 {
        let proc = self.proc_arc(pid);
        let mut st = proc.sync.lock();
        st.ticket += 1;
        st.ticket
    }

    /// Park until a `Wake` with the current ticket is granted.
    pub(crate) fn park(&self, pid: Pid) {
        let proc = self.proc_arc(pid);
        match &proc.imp {
            ProcImpl::Thread { cv } => {
                let mut st = proc.sync.lock();
                st.phase = Phase::Idle;
                cv.notify_all(); // release the driver
                while st.phase == Phase::Idle {
                    cv.wait(&mut st);
                }
                if st.phase == Phase::Abort {
                    st.phase = Phase::Run; // let the unwind propagate out of park
                    drop(st);
                    // Unwind silently: this is teardown, not a failure.
                    ABORTING.with(|a| a.set(true));
                    std::panic::panic_any(AbortToken);
                }
            }
            ProcImpl::Fiber(_) => {
                proc.sync.lock().phase = Phase::Idle;
                fiber::switch_to_driver();
                // Resumed: the driver granted us (Run) or is tearing the
                // simulation down (Abort).
                let mut st = proc.sync.lock();
                if st.phase == Phase::Abort {
                    st.phase = Phase::Run;
                    drop(st);
                    ABORTING.with(|a| a.set(true));
                    std::panic::panic_any(AbortToken);
                }
                debug_assert_eq!(st.phase, Phase::Run, "fiber resumed without a grant");
            }
        }
    }

    /// Convenience: schedule a wake for `pid` at `at` and park.
    fn sleep_until(&self, pid: Pid, at: Nanos) {
        let ticket = self.prepare_park(pid);
        self.schedule(at, EventKind::Wake { pid, ticket });
        self.park(pid);
    }
}

/// Sentinel panic payload used to unwind parked processes during teardown.
struct AbortToken;

thread_local! {
    /// Set just before the teardown unwind so the panic hook stays silent.
    static ABORTING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Install (once, process-wide) a panic hook that suppresses the expected
/// teardown unwind but defers to the previous hook for real panics.
fn install_quiet_abort_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if ABORTING.with(|a| a.get()) {
                return;
            }
            previous(info);
        }));
    });
}

fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

// ---------------------------------------------------------------------------
// Thread-local current process
// ---------------------------------------------------------------------------

struct Current {
    kernel: Arc<Kernel>,
    pid: Pid,
    proc: Arc<Proc>,
}

thread_local! {
    static CURRENT: RefCell<Option<Current>> = const { RefCell::new(None) };

    /// Per-thread op-context fallback for code running outside any
    /// simulated process (test drivers, bench setup).
    static FALLBACK_OP_CTX: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

pub(crate) fn with_current<R>(f: impl FnOnce(&Arc<Kernel>, Pid) -> R) -> R {
    // Clone out of the thread-local before running `f`: with the fiber
    // backend, `f` may park (a context switch back to the driver, which then
    // mutates CURRENT), so the borrow must not be held across it.
    let (kernel, pid) = CURRENT.with(|c| {
        let b = c.borrow();
        let cur = b
            .as_ref()
            .expect("this operation must be called from within a simulated process");
        (Arc::clone(&cur.kernel), cur.pid)
    });
    f(&kernel, pid)
}

/// Read the current *process* context slot (see [`op_ctx_replace`]).
pub fn op_ctx_get() -> u64 {
    CURRENT.with(|c| match &*c.borrow() {
        Some(cur) => cur.proc.op_ctx.load(Ordering::Relaxed),
        None => FALLBACK_OP_CTX.with(|f| f.get()),
    })
}

/// Swap the current *process* context slot, returning the previous value.
///
/// This is per-process state that survives parks: cross-cutting layers (the
/// tracer's op-id scope) must not use a plain thread-local, because with the
/// fiber executor every process shares the driver thread and a thread-local
/// would leak one process's context into the next at every park point. Code
/// running outside a simulation falls back to a genuine thread-local.
pub fn op_ctx_replace(v: u64) -> u64 {
    CURRENT.with(|c| match &*c.borrow() {
        Some(cur) => cur.proc.op_ctx.swap(v, Ordering::Relaxed),
        None => FALLBACK_OP_CTX.with(|f| f.replace(v)),
    })
}

/// Current virtual time, callable only from within a simulated process.
/// (From the driver, use [`Sim::now`].)
pub fn now() -> Nanos {
    with_current(|k, _| k.now())
}

/// Current virtual time, or `None` when called from outside a simulated
/// process. Lets cross-cutting layers (tracing, metrics) stamp records
/// without caring whether they run inside the simulation.
pub fn try_now() -> Option<Nanos> {
    // No park can happen here, so reading under the borrow is fine (and
    // skips two Arc clones on a very hot path).
    CURRENT.with(|c| c.borrow().as_ref().map(|cur| cur.kernel.now()))
}

/// Events the kernel has dispatched so far (the live
/// [`SimCounters::events_dispatched`]), callable only from within a
/// simulated process. Lets a process count the events of one stretch of a
/// run, such as a measured window.
pub fn events_dispatched() -> u64 {
    with_current(|k, _| k.sched.lock().events_dispatched)
}

/// Suspend the calling process for `d` virtual nanoseconds.
pub fn sleep(d: Nanos) {
    with_current(|k, pid| {
        let at = k.now() + d;
        k.sleep_until(pid, at)
    });
}

/// Suspend the calling process until virtual time `at`.
pub fn sleep_until(at: Nanos) {
    with_current(|k, pid| k.sleep_until(pid, at));
}

/// Account `d` nanoseconds of simulated CPU work.
///
/// Alias of [`sleep`]: each simulated process owns its core, so busy time and
/// idle time are indistinguishable to other processes.
#[inline]
pub fn work(d: Nanos) {
    sleep(d);
}

/// Yield to any other event scheduled at the current virtual instant.
pub fn yield_now() {
    sleep(0);
}

/// Schedule `f` to run on the driver thread at absolute virtual time `at`
/// (clamped to now). Callable only from within a simulated process; the
/// driver-side equivalent is [`Sim::call_at`].
///
/// Used for effects that must occur at an exact instant without a dedicated
/// process — e.g. the NIC applying DMA bytes at message-arrival time.
pub fn call_at<F>(at: Nanos, f: F)
where
    F: FnOnce() + Send + 'static,
{
    with_current(|k, _| k.schedule(at, EventKind::Call(Box::new(|_k| f()))));
}

/// Spawn a new simulated process from within a running one. The child starts
/// at the current virtual time, after the parent yields.
pub fn spawn<F>(name: &str, f: F) -> ProcessHandle
where
    F: FnOnce() + Send + 'static,
{
    with_current(|k, _| k.spawn_process(name, f))
}

// ---------------------------------------------------------------------------
// Public handles
// ---------------------------------------------------------------------------

/// Handle to a spawned process; lets other processes [`join`](Self::join) it.
pub struct ProcessHandle {
    kernel: Arc<Kernel>,
    pid: Pid,
}

impl ProcessHandle {
    /// Pid of the process this handle refers to.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Block (in virtual time) until the process exits. Must be called from
    /// within a simulated process.
    pub fn join(&self) {
        let (me_kernel, me) = with_current(|k, pid| (Arc::clone(k), pid));
        assert!(
            Arc::ptr_eq(&me_kernel, &self.kernel),
            "join across different simulations"
        );
        let ticket = {
            let mut s = self.kernel.sched.lock();
            if s.meta[self.pid].exited {
                return;
            }
            // Reserve the ticket *before* registering as a joiner; the
            // sched lock must be released in between because prepare_park
            // takes the proc lock.
            drop(s);
            let t = self.kernel.prepare_park(me);
            s = self.kernel.sched.lock();
            if s.meta[self.pid].exited {
                // Exited in the window — but nothing else ran (we hold
                // execution), so this is unreachable; keep it for safety.
                return;
            }
            s.meta[self.pid].joiners.push((me, t));
            t
        };
        let _ = ticket;
        self.kernel.park(me);
    }
}

/// Result of driving a simulation with [`Sim::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every process exited; `now` is the final virtual time.
    Completed { now: Nanos },
    /// The event queue drained but some processes are still parked (e.g. a
    /// server blocked on a closed-wire receive). `parked` lists their names.
    Idle { now: Nanos, parked: Vec<String> },
    /// A process panicked; the message includes the process name.
    Failed { now: Nanos, error: String },
    /// `run_until` reached the requested time with events still pending.
    DeadlineReached { now: Nanos },
}

impl RunOutcome {
    /// Final virtual time of the run.
    pub fn now(&self) -> Nanos {
        match self {
            RunOutcome::Completed { now }
            | RunOutcome::Idle { now, .. }
            | RunOutcome::Failed { now, .. }
            | RunOutcome::DeadlineReached { now } => *now,
        }
    }

    /// Panics if the run failed; otherwise returns `self`.
    pub fn expect_ok(self) -> Self {
        if let RunOutcome::Failed { error, .. } = &self {
            panic!("simulation failed: {error}");
        }
        self
    }
}

/// A deterministic discrete-event simulation.
///
/// See the [crate docs](crate) for the execution model. The `seed` is carried
/// for components that want deterministic randomness; the kernel itself is
/// deterministic by construction.
pub struct Sim {
    kernel: Arc<Kernel>,
    seed: u64,
}

/// Upper bound on events drained per queue-lock acquisition. Large enough
/// that thousand-client same-tick storms amortize the lock to nothing, small
/// enough to bound the scratch buffer.
const MAX_BATCH: usize = 1024;

impl Sim {
    /// Create an empty simulation on the default executor: fibers where
    /// they are supported, threads elsewhere. `seed` is made available via
    /// [`Sim::seed`] for seeding workload/crash RNGs.
    pub fn new(seed: u64) -> Self {
        Sim::with_exec(seed, ExecModel::Fiber)
    }

    /// Create an empty simulation on a specific executor (fibers degrade to
    /// threads where unsupported). Used by the equivalence suites and
    /// benches to compare backends directly.
    pub fn with_exec(seed: u64, exec: ExecModel) -> Self {
        install_quiet_abort_hook();
        Sim {
            kernel: Kernel::new(exec.resolve()),
            seed,
        }
    }

    /// The seed this simulation was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The executor actually in use (after target fallback).
    pub fn exec(&self) -> ExecModel {
        self.kernel.exec
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.kernel.now()
    }

    /// Kernel hot-path counters (events, allocations, context switches).
    pub fn counters(&self) -> SimCounters {
        let s = self.kernel.sched.lock();
        self.kernel.stats.snapshot(&s)
    }

    /// Spawn a simulated process. It first runs when [`run`](Self::run) is
    /// called (at the current virtual time).
    pub fn spawn<F>(&self, name: &str, f: F) -> ProcessHandle
    where
        F: FnOnce() + Send + 'static,
    {
        self.kernel.spawn_process(name, f)
    }

    /// Create a virtual-latency channel tied to this simulation.
    pub fn channel<T: Send + 'static>(&self) -> (crate::Sender<T>, crate::Receiver<T>) {
        crate::chan::channel_on(&self.kernel)
    }

    /// Schedule a closure to run on the driver thread at absolute virtual
    /// time `at`. Used by the fabric to apply DMA effects at exact instants.
    pub fn call_at<F>(&self, at: Nanos, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.kernel
            .schedule(at, EventKind::Call(Box::new(|_k| f())));
    }

    /// Drive the simulation until no events remain (or a process panics).
    pub fn run(&mut self) -> RunOutcome {
        self.run_inner(None)
    }

    /// Drive the simulation until virtual time `deadline`. Events after the
    /// deadline stay queued; the clock stops at the last event processed, or
    /// at `deadline` when events remain.
    pub fn run_until(&mut self, deadline: Nanos) -> RunOutcome {
        self.run_inner(Some(deadline))
    }

    fn run_inner(&mut self, deadline: Option<Nanos>) -> RunOutcome {
        let kernel = Arc::clone(&self.kernel);
        // Scratch batch of same-tick events, reused across refills so the
        // steady-state dispatch loop performs no allocation at all.
        let mut batch: Vec<(u64, EventKind)> = Vec::new();
        // Pid → proc lookaside. Pids are stable and the procs table is
        // append-only, so a cached Arc stays valid for the whole run and
        // the per-wake `procs` lock + Arc clone drops out of the hot loop.
        let mut proc_cache: Vec<Option<Arc<Proc>>> = Vec::new();
        // Per-run dispatch tallies, folded into the shared atomics on every
        // exit path (one RMW per counter per run, not per event).
        let mut tally = DispatchTally::default();
        loop {
            // Refill: drain every event scheduled for the earliest pending
            // tick in one lock acquisition. Order-safe: batch members are
            // already in `(at, seq)` order and any event scheduled *during*
            // the batch gets a later `seq` (same tick) or a later tick, so
            // it sorts after every batch member.
            let tick = {
                let mut s = kernel.sched.lock();
                if kernel.stats.failed.load(Ordering::Relaxed) {
                    if let Some(err) = s.failure.take() {
                        kernel.stats.failed.store(false, Ordering::Relaxed);
                        let now = s.now;
                        kernel.stats.fold_dispatch(&tally);
                        return RunOutcome::Failed { now, error: err };
                    }
                }
                let Some(head) = s.heap.peek() else { break };
                let tick = head.at;
                if let Some(dl) = deadline {
                    if tick > dl {
                        s.now = dl;
                        kernel.now_cache.store(dl, Ordering::Relaxed);
                        kernel.stats.fold_dispatch(&tally);
                        return RunOutcome::DeadlineReached { now: dl };
                    }
                }
                debug_assert!(tick >= s.now, "event scheduled in the past");
                s.now = tick;
                kernel.now_cache.store(tick, Ordering::Relaxed);
                while let Some(h) = s.heap.peek() {
                    if h.at != tick || batch.len() >= MAX_BATCH {
                        break;
                    }
                    let key = s.heap.pop().expect("peeked event vanished");
                    let kind = s.take_slot(key.slot);
                    batch.push((key.seq, kind));
                }
                s.events_dispatched += batch.len() as u64;
                tick
            };
            let stats = &kernel.stats;
            let mut pending = batch.drain(..);
            while let Some((_seq, kind)) = pending.next() {
                match kind {
                    EventKind::Call(f) => {
                        tally.calls += 1;
                        f(&kernel);
                    }
                    EventKind::WakeAll(target) => {
                        tally.chan_wakes += 1;
                        target.wake_all(&kernel);
                    }
                    EventKind::Wake { pid, ticket } => {
                        if proc_cache.len() <= pid {
                            proc_cache.resize(pid + 1, None);
                        }
                        let proc = proc_cache[pid].get_or_insert_with(|| kernel.proc_arc(pid));
                        let granted = {
                            let mut st = proc.sync.lock();
                            if st.phase == Phase::Exited || st.ticket != ticket {
                                tally.wakes_stale += 1;
                                false // stale wake
                            } else {
                                debug_assert_eq!(st.phase, Phase::Idle, "waking a running process");
                                st.phase = Phase::Run;
                                tally.ctx_switches += 1;
                                if let ProcImpl::Thread { cv } = &proc.imp {
                                    cv.notify_all();
                                    while st.phase == Phase::Run {
                                        cv.wait(&mut st);
                                    }
                                }
                                true
                            }
                        };
                        if granted {
                            if let ProcImpl::Fiber(_) = &proc.imp {
                                kernel.resume_fiber(pid, proc);
                            }
                        }
                    }
                }
                if stats.failed.load(Ordering::Relaxed) {
                    // A process panicked mid-batch. Put the undispatched
                    // remainder back so the queue state matches what a
                    // one-event-at-a-time loop would leave behind, then
                    // surface the failure.
                    let rest: Vec<(u64, EventKind)> = pending.collect();
                    let mut s = kernel.sched.lock();
                    for (seq, kind) in rest {
                        s.requeue(tick, seq, kind);
                    }
                    stats.failed.store(false, Ordering::Relaxed);
                    if let Some(err) = s.failure.take() {
                        let now = s.now;
                        stats.fold_dispatch(&tally);
                        return RunOutcome::Failed { now, error: err };
                    }
                    break;
                }
            }
        }
        // Event queue drained.
        self.kernel.stats.fold_dispatch(&tally);
        let s = self.kernel.sched.lock();
        if let Some(err) = s.failure.clone() {
            return RunOutcome::Failed {
                now: s.now,
                error: err,
            };
        }
        if s.live == 0 {
            RunOutcome::Completed { now: s.now }
        } else {
            let procs = self.kernel.procs.lock();
            let parked = s
                .meta
                .iter()
                .enumerate()
                .filter(|(_, m)| !m.exited)
                .map(|(pid, _)| procs[pid].name.clone())
                .collect();
            RunOutcome::Idle { now: s.now, parked }
        }
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        // Abort every parked process so it unwinds and exits. Processes are
        // never *running* here: the driver (us) isn't inside run(), so all
        // processes are parked, never-started, or exited.
        let procs = self.kernel.procs.lock().clone();
        for (pid, proc) in procs.iter().enumerate() {
            match &proc.imp {
                ProcImpl::Thread { cv } => {
                    let mut st = proc.sync.lock();
                    if st.phase == Phase::Idle {
                        st.phase = Phase::Abort;
                        cv.notify_all();
                    }
                }
                ProcImpl::Fiber(slot) => {
                    // Never started: just drop the stored body — no stack
                    // exists, nothing to unwind.
                    if slot.discard_unstarted() {
                        continue;
                    }
                    let parked = {
                        let mut st = proc.sync.lock();
                        if st.phase == Phase::Idle {
                            st.phase = Phase::Abort;
                            true
                        } else {
                            false
                        }
                    };
                    if parked {
                        // The resume runs the AbortToken unwind to
                        // completion on the fiber's own stack and frees it.
                        self.kernel
                            .stats
                            .ctx_switches
                            .fetch_add(1, Ordering::Relaxed);
                        self.kernel.resume_fiber(pid, proc);
                    }
                }
            }
        }
        drop(procs);
        let threads = std::mem::take(&mut *self.kernel.threads.lock());
        for t in threads {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::micros;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex as StdMutex;

    /// Run `f` once per executor backend, so every semantic pin in this
    /// module covers both the fiber and thread implementations.
    fn for_each_exec(f: impl Fn(fn(u64) -> Sim)) {
        f(|seed| Sim::with_exec(seed, ExecModel::Fiber));
        f(|seed| Sim::with_exec(seed, ExecModel::Thread));
    }

    #[test]
    fn clock_starts_at_zero_and_advances_by_sleep() {
        for_each_exec(|mk| {
            let mut sim = mk(0);
            let t = Arc::new(AtomicU64::new(u64::MAX));
            let t2 = t.clone();
            sim.spawn("p", move || {
                assert_eq!(now(), 0);
                sleep(micros(5));
                t2.store(now(), Ordering::SeqCst);
            });
            let out = sim.run().expect_ok();
            assert_eq!(out, RunOutcome::Completed { now: micros(5) });
            assert_eq!(t.load(Ordering::SeqCst), micros(5));
        });
    }

    #[test]
    fn processes_interleave_in_time_order() {
        for_each_exec(|mk| {
            let mut sim = mk(0);
            let log = Arc::new(StdMutex::new(Vec::new()));
            for (name, delay) in [("a", 300u64), ("b", 100), ("c", 200)] {
                let log = log.clone();
                sim.spawn(name, move || {
                    sleep(delay);
                    log.lock().unwrap().push((now(), name));
                });
            }
            sim.run().expect_ok();
            assert_eq!(
                *log.lock().unwrap(),
                vec![(100, "b"), (200, "c"), (300, "a")]
            );
        });
    }

    #[test]
    fn simultaneous_wakes_fire_in_spawn_order() {
        for_each_exec(|mk| {
            let mut sim = mk(0);
            let log = Arc::new(StdMutex::new(Vec::new()));
            for name in ["first", "second", "third"] {
                let log = log.clone();
                sim.spawn(name, move || {
                    sleep(50);
                    log.lock().unwrap().push(name);
                });
            }
            sim.run().expect_ok();
            assert_eq!(*log.lock().unwrap(), vec!["first", "second", "third"]);
        });
    }

    #[test]
    fn spawn_from_process_starts_at_current_time() {
        for_each_exec(|mk| {
            let mut sim = mk(0);
            let child_start = Arc::new(AtomicU64::new(u64::MAX));
            let cs = child_start.clone();
            sim.spawn("parent", move || {
                sleep(1_000);
                let cs = cs.clone();
                let h = spawn("child", move || {
                    cs.store(now(), Ordering::SeqCst);
                    sleep(500);
                });
                h.join();
                assert_eq!(now(), 1_500);
            });
            sim.run().expect_ok();
            assert_eq!(child_start.load(Ordering::SeqCst), 1_000);
        });
    }

    #[test]
    fn join_on_already_exited_process_returns_immediately() {
        for_each_exec(|mk| {
            let mut sim = mk(0);
            sim.spawn("root", || {
                let h = spawn("quick", || {});
                sleep(10_000); // child exits long before this
                h.join();
                assert_eq!(now(), 10_000);
            });
            sim.run().expect_ok();
        });
    }

    #[test]
    fn panic_in_process_is_reported_with_name() {
        for_each_exec(|mk| {
            let mut sim = mk(0);
            sim.spawn("doomed", || {
                sleep(10);
                panic!("boom");
            });
            match sim.run() {
                RunOutcome::Failed { error, now } => {
                    assert!(error.contains("doomed"), "missing name: {error}");
                    assert!(error.contains("boom"), "missing message: {error}");
                    assert_eq!(now, 10);
                }
                other => panic!("expected failure, got {other:?}"),
            }
        });
    }

    #[test]
    fn idle_reports_parked_process_names() {
        for_each_exec(|mk| {
            let mut sim = mk(0);
            let (_tx, rx) = sim.channel::<()>();
            sim.spawn("server", move || {
                // _tx is still alive outside; recv blocks forever.
                let _ = rx.recv();
            });
            match sim.run() {
                RunOutcome::Idle { parked, .. } => {
                    assert_eq!(parked, vec!["server".to_string()])
                }
                other => panic!("expected Idle, got {other:?}"),
            }
        });
    }

    #[test]
    fn run_until_stops_at_deadline() {
        for_each_exec(|mk| {
            let mut sim = mk(0);
            let progressed = Arc::new(AtomicU64::new(0));
            let p = progressed.clone();
            sim.spawn("ticker", move || loop {
                sleep(1_000);
                p.fetch_add(1, Ordering::SeqCst);
                if now() > micros(100) {
                    break;
                }
            });
            let out = sim.run_until(10_500);
            assert_eq!(out, RunOutcome::DeadlineReached { now: 10_500 });
            assert_eq!(progressed.load(Ordering::SeqCst), 10);
            // Resume to completion.
            sim.run().expect_ok();
            assert!(progressed.load(Ordering::SeqCst) > 100);
        });
    }

    #[test]
    fn call_at_runs_at_exact_time_between_process_steps() {
        for_each_exec(|mk| {
            let mut sim = mk(0);
            let log = Arc::new(StdMutex::new(Vec::new()));
            let l1 = log.clone();
            sim.spawn("p", move || {
                sleep(100);
                l1.lock().unwrap().push(("proc", now()));
            });
            let l2 = log.clone();
            sim.call_at(50, move || l2.lock().unwrap().push(("call", 50)));
            sim.run().expect_ok();
            assert_eq!(*log.lock().unwrap(), vec![("call", 50), ("proc", 100)]);
        });
    }

    #[test]
    fn work_is_an_alias_for_sleep() {
        for_each_exec(|mk| {
            let mut sim = mk(0);
            sim.spawn("w", || {
                work(123);
                assert_eq!(now(), 123);
            });
            sim.run().expect_ok();
        });
    }

    #[test]
    fn dropping_sim_with_parked_processes_does_not_hang() {
        for_each_exec(|mk| {
            let mut sim = mk(0);
            let (_tx, rx) = sim.channel::<()>();
            sim.spawn("stuck", move || {
                let _ = rx.recv();
            });
            let _ = sim.run(); // Idle
            drop(sim); // must abort + unwind the parked process without deadlock
        });
    }

    #[test]
    fn dropping_unrun_sim_with_spawned_processes_does_not_hang() {
        for_each_exec(|mk| {
            let sim = mk(0);
            sim.spawn("never-ran", || {});
            drop(sim);
        });
    }

    #[test]
    fn teardown_unwind_runs_destructors_on_fiber_stacks() {
        // Locals owned by a parked fiber must be dropped during Sim drop
        // (the AbortToken unwind runs to completion on the fiber's stack).
        struct SetOnDrop(Arc<AtomicU64>);
        impl Drop for SetOnDrop {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        for_each_exec(|mk| {
            let mut sim = mk(0);
            let drops = Arc::new(AtomicU64::new(0));
            let (_tx, rx) = sim.channel::<()>();
            let d = drops.clone();
            sim.spawn("holder", move || {
                let _guard = SetOnDrop(d);
                let _ = rx.recv(); // parks forever
            });
            let _ = sim.run(); // Idle
            drop(sim);
            assert_eq!(drops.load(Ordering::SeqCst), 1);
        });
    }

    #[test]
    fn panic_after_teardown_is_still_reported() {
        // The quiet-abort flag must be re-armed after a teardown unwind on
        // the driver thread: a later real panic in a *new* Sim must still
        // surface as Failed (and its hook must not be suppressed).
        let mut sim = Sim::with_exec(0, ExecModel::Fiber);
        let (_tx, rx) = sim.channel::<()>();
        sim.spawn("stuck", move || {
            let _ = rx.recv();
        });
        let _ = sim.run();
        drop(sim); // teardown unwind on this thread

        let mut sim2 = Sim::with_exec(0, ExecModel::Fiber);
        sim2.spawn("boom", || panic!("real failure"));
        match sim2.run() {
            RunOutcome::Failed { error, .. } => assert!(error.contains("real failure")),
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn deterministic_trace_across_runs() {
        fn trace(seed: u64, exec: ExecModel) -> Vec<(Nanos, String)> {
            let mut sim = Sim::with_exec(seed, exec);
            let log = Arc::new(StdMutex::new(Vec::new()));
            for i in 0..5 {
                let log = log.clone();
                sim.spawn(&format!("p{i}"), move || {
                    let mut d = (i as u64 * 37 + 11) % 97;
                    for _ in 0..20 {
                        sleep(d);
                        d = (d * 31 + 7) % 113;
                        log.lock().unwrap().push((now(), format!("p{i}")));
                    }
                });
            }
            sim.run().expect_ok();
            let v = log.lock().unwrap().clone();
            v
        }
        assert_eq!(trace(1, ExecModel::Fiber), trace(1, ExecModel::Fiber));
        // The executors must produce the identical event order, not merely
        // internally consistent ones.
        assert_eq!(trace(1, ExecModel::Fiber), trace(1, ExecModel::Thread));
    }

    #[test]
    fn backends_agree_on_counters() {
        fn counters(exec: ExecModel) -> SimCounters {
            let mut sim = Sim::with_exec(7, exec);
            let (tx, rx) = sim.channel::<u64>();
            sim.spawn("server", move || {
                while let Ok(v) = rx.recv() {
                    sleep(v % 13);
                }
            });
            sim.spawn("client", move || {
                for i in 0..50 {
                    tx.send(i, 10 + i % 7).unwrap();
                    sleep(5);
                }
            });
            sim.run().expect_ok();
            sim.counters()
        }
        let fiber = counters(ExecModel::Fiber);
        let thread = counters(ExecModel::Thread);
        assert_eq!(fiber.backend_invariant(), thread.backend_invariant());
        assert!(fiber.events_dispatched > 0);
        assert!(fiber.chan_wakes > 0);
        assert!(fiber.ctx_switches > 0);
    }

    #[test]
    fn event_slab_recycles_slots() {
        // A long-running ping-pong keeps the queue small; slab growth must
        // plateau while reuse keeps climbing.
        let mut sim = Sim::new(0);
        sim.spawn("p", || {
            for _ in 0..10_000 {
                sleep(3);
            }
        });
        sim.run().expect_ok();
        let c = sim.counters();
        assert!(
            c.allocs < 64,
            "slab should plateau at the queue high-water mark, grew {} slots",
            c.allocs
        );
        assert!(
            c.slab_reused > 9_000,
            "steady-state scheduling should recycle slots, reused {}",
            c.slab_reused
        );
    }

    #[test]
    fn op_ctx_is_per_process_not_per_thread() {
        // Two processes alternating on the (shared, under fibers) driver
        // thread must each see their own context value across parks.
        for_each_exec(|mk| {
            let mut sim = mk(0);
            for i in 1..=2u64 {
                sim.spawn(&format!("p{i}"), move || {
                    let prev = op_ctx_replace(i * 100);
                    assert_eq!(prev, 0);
                    for _ in 0..10 {
                        sleep(7);
                        assert_eq!(op_ctx_get(), i * 100);
                    }
                    op_ctx_replace(prev);
                });
            }
            sim.run().expect_ok();
            // Outside any process: the fallback slot, untouched.
            assert_eq!(op_ctx_get(), 0);
        });
    }

    #[test]
    fn yield_now_lets_same_time_events_run() {
        for_each_exec(|mk| {
            let mut sim = mk(0);
            let log = Arc::new(StdMutex::new(Vec::new()));
            let l1 = log.clone();
            let l2 = log.clone();
            sim.spawn("a", move || {
                l1.lock().unwrap().push("a1");
                yield_now();
                l1.lock().unwrap().push("a2");
            });
            sim.spawn("b", move || {
                l2.lock().unwrap().push("b1");
            });
            sim.run().expect_ok();
            // a runs first (spawned first), yields; b (scheduled at t=0) runs;
            // then a's wake (scheduled during its first step) fires.
            assert_eq!(*log.lock().unwrap(), vec!["a1", "b1", "a2"]);
        });
    }

    #[test]
    fn deep_recursion_fits_default_fiber_stack() {
        // ~100 levels of non-trivial frames with a park at the bottom —
        // representative of client→pipeline→fabric call depth.
        fn recurse(depth: usize, acc: u64) -> u64 {
            let local = [acc; 16]; // force a real frame
            if depth == 0 {
                sleep(5);
                return local.iter().sum();
            }
            recurse(depth - 1, acc + 1) + local[0]
        }
        let mut sim = Sim::with_exec(0, ExecModel::Fiber);
        sim.spawn("deep", || {
            let v = recurse(100, 1);
            assert!(v > 0);
        });
        sim.run().expect_ok();
    }
}
