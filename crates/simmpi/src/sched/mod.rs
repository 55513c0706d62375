//! M:N cooperative rank scheduler: simulated ranks as stackful coroutines
//! multiplexed onto a fixed worker pool.
//!
//! Each rank is a [`TaskCtl`]: a stack from the job's slab plus a saved
//! register context.
//! Workers pull ranks off a run queue ordered by the minimum
//! `(virtual_time, rank)` key and resume them with a context switch; a rank
//! runs until it blocks in `recv`/`wait_all`, waits in a halo exchange for
//! a neighbour's deposit, or parks in a symmetric collective (the only
//! points where the virtual clock must wait for a peer), then switches back
//! to the worker.
//!
//! # Yield protocol (how the lost-wakeup race is impossible)
//!
//! A blocking rank does *not* register itself as blocked: it writes
//! `Pending::Block` into its control block and switches to the worker. The
//! **worker** then — under the scheduler mutex — re-checks the mailbox and
//! either re-queues the rank as runnable (the message, or the sender's
//! termination, raced the yield) or records it as `Blocked` and indexes it
//! under its sender. A sender that finds its destination `Blocked` on the
//! matching `(src, tag)` re-queues it. Since registration and wake both
//! happen under the one mutex, and the registration re-checks the mailbox,
//! no message can slip between "queue was empty" and "now I'm asleep".
//!
//! A rank waiting in a halo exchange yields `Pending::Exchange` with the
//! channel it waits on. The worker, under the mutex, raises the channel's
//! `waiting` flag, fences and re-reads the channel's published count
//! before recording the rank as `Exchanging` under its sender; a sender
//! publishes its exchange's deposits, fences, then reads the flags, and
//! takes the mutex (to re-queue the rank) only for a flag that was up. The
//! fences are sequentially consistent, so one side sees the other (see
//! `crate::exchange`): a sender whose receivers are awake never touches
//! the scheduler at all.
//!
//! A rank entering a collective that others have yet to reach parks the
//! same way (`Pending::Park`): the registration re-checks the collective's
//! number against the rendezvous generation, and the rank that completes
//! the collective advances the generation before it wakes the `Parked`
//! ranks under one lock (see `crate::rendezvous`).
//!
//! # Determinism
//!
//! Results never depend on scheduling order in the first place: virtual
//! clocks are pure functions of the program, config, and per-`(src, dst)`
//! message sequence numbers (see `DESIGN.md` §9). The min-`(time, rank)`
//! policy is about *structure*: the run queue is a deterministic priority
//! order, a single worker executes ranks in exactly virtual-time order, and
//! the fault path needs no poison-ordering subtlety — a dead rank's waiters
//! are woken from the scheduler itself.
//!
//! # Deadlock
//!
//! A cyclic wait (every unfinished rank blocked or parked, nothing runnable
//! or running) is *detected structurally*: the last worker to register a block
//! observes the condition, records a deterministic report naming the
//! blocked ranks in rank order, and resumes every blocked rank with
//! [`Verdict::Deadlock`]. Each victim unwinds through the normal poison
//! path (running its destructors, so no coroutine stack is dropped with
//! live frames), and the engine re-raises the report. The thread engine
//! would simply hang on the same program.

#![allow(unsafe_code)]

pub(crate) mod context;

use crate::comm::SharedComm;
use crate::exchange::Channel;
use context::{ctx_swap, init_context, Context, TaskStack};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// What a task asks its worker to do after yielding.
enum Pending {
    /// Sleep until a message from `(src, tag)` can be received (subject to
    /// the worker's registration re-check).
    Block { src: usize, tag: u64, clock: f64 },
    /// Sleep until `channel`, from `src`, holds a deposit (subject to the
    /// worker's registration re-check).
    Exchange {
        channel: Arc<Channel>,
        src: usize,
        clock: f64,
    },
    /// Sleep until the collective `op` the rank entered is evaluated
    /// (subject to the worker's registration re-check).
    Park {
        op: &'static str,
        clock: f64,
        generation: u64,
    },
    /// The task's body returned (or unwound and was caught); never resumed.
    Finished,
}

/// Why a blocked task was resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Re-check the mailbox (a message arrived or the sender terminated),
    /// the exchange channel (a deposit arrived or the sender terminated),
    /// or the rendezvous (the collective was evaluated).
    Retry,
    /// The job is deadlocked; unwind via the poison path.
    Deadlock,
}

/// Per-rank scheduling state.
#[derive(Clone, Copy, PartialEq)]
enum Status {
    /// In the run queue.
    Runnable,
    /// Owned by a worker right now.
    Running,
    /// Asleep waiting on `(src, tag)`; `key` is the frozen clock sort key.
    Blocked { src: usize, tag: u64, key: u64 },
    /// Asleep in a halo exchange until `src` publishes a deposit.
    Exchanging { src: usize, key: u64 },
    /// Asleep in the collective `op`, the job's collective number
    /// `generation`, until it is evaluated.
    Parked {
        op: &'static str,
        key: u64,
        generation: u64,
    },
    /// Done; will never run again.
    Finished,
}

/// Sort key for the run queue: non-negative finite f64 bit patterns order
/// the same as the values, so the heap needs no float comparator.
fn clock_key(clock: f64) -> u64 {
    debug_assert!(clock >= 0.0 && clock.is_finite());
    clock.to_bits()
}

/// Control block of one coroutine task. Accessed only by the worker that
/// currently owns the task (hand-offs synchronize through the scheduler
/// mutex), so the raw-pointer sharing in [`TaskTable`] is single-writer.
pub(crate) struct TaskCtl {
    rank: usize,
    /// The task's saved context while suspended; the save target while it
    /// runs.
    ctx: Context,
    /// The resuming worker's context, to switch back to on yield.
    ret: *mut Context,
    pending: Option<Pending>,
    verdict: Verdict,
    /// The body; consumed on first entry.
    entry: Option<Box<dyn FnOnce() + Send + 'static>>,
    /// Panic payload of an unwind that escaped the body's own
    /// `catch_unwind` (an engine bug, not an application panic) — kept so
    /// the failure stays diagnosable.
    crash: Option<String>,
    stack: TaskStack,
}

// Raw pointers block the auto-impl; ownership hand-off between workers is
// serialized by the scheduler mutex.
unsafe impl Send for TaskCtl {}

impl TaskCtl {
    /// Builds a not-yet-started task whose first resume runs `entry` on
    /// `stack`.
    pub(crate) fn new(
        rank: usize,
        stack: TaskStack,
        entry: Box<dyn FnOnce() + Send + 'static>,
    ) -> Box<TaskCtl> {
        let mut ctl = Box::new(TaskCtl {
            rank,
            ctx: Context::new(),
            ret: std::ptr::null_mut(),
            pending: None,
            verdict: Verdict::Retry,
            entry: Some(entry),
            crash: None,
            stack,
        });
        let ptr: *mut TaskCtl = &mut *ctl;
        ctl.ctx = init_context(&ctl.stack, ptr.cast());
        ctl
    }

    /// The crash payload, if the task died outside its own `catch_unwind`.
    pub(crate) fn crash_message(&mut self) -> Option<String> {
        self.crash.take()
    }
}

/// Erases the lifetime of a task body so it can live in a [`TaskCtl`].
///
/// # Safety contract (checked by construction, not the compiler)
/// Every task created from the boxed closure must finish — or be unwound
/// and finish — before the borrows it captures go out of scope. The engine
/// guarantees this by running all tasks to completion inside a
/// `std::thread::scope` that outlives nothing the closure borrows.
pub(crate) fn erase_task_lifetime(
    f: Box<dyn FnOnce() + Send + '_>,
) -> Box<dyn FnOnce() + Send + 'static> {
    // SAFETY: see the doc comment; the only caller upholds it.
    unsafe { std::mem::transmute(f) }
}

/// Shared read-only table of task pointers for the worker pool.
pub(crate) struct TaskTable {
    ptrs: Vec<*mut TaskCtl>,
}

// Each pointee is accessed by one worker at a time (scheduler-mutex
// hand-off), so sharing the table of pointers is safe.
unsafe impl Sync for TaskTable {}

impl TaskTable {
    pub(crate) fn new(tasks: &mut [Box<TaskCtl>]) -> Self {
        TaskTable {
            ptrs: tasks.iter_mut().map(|t| &mut **t as *mut TaskCtl).collect(),
        }
    }

    fn ptr(&self, rank: usize) -> *mut TaskCtl {
        self.ptrs[rank]
    }
}

thread_local! {
    /// The task currently running on this OS thread, if any. Set by the
    /// worker around each resume; read by the communicator's yield hook.
    static CURRENT: Cell<*mut TaskCtl> = const { Cell::new(std::ptr::null_mut()) };
}

/// First entry point of every coroutine; called by the assembly trampoline.
///
/// Runs the task body under a backstop `catch_unwind` (the body has its own
/// that maps panics to rank outcomes; this one only exists so unwinding can
/// never cross the trampoline frame), then yields `Finished` forever.
#[no_mangle]
unsafe extern "C" fn hetero_simmpi_task_entry(ctl: *mut TaskCtl) -> ! {
    // SAFETY: the worker that resumed us owns `ctl` and is suspended in
    // `ctx_swap` until we switch back; we are the only accessor.
    unsafe {
        let entry = (*ctl).entry.take().expect("fresh task has a body");
        if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(entry)) {
            (*ctl).crash = Some(crate::engine::panic_message(payload.as_ref()));
        }
        (*ctl).pending = Some(Pending::Finished);
        ctx_swap(&mut (*ctl).ctx, (*ctl).ret);
    }
    // A finished task is never resumed; reaching here is unrecoverable.
    std::process::abort();
}

/// Task-side block: parks the current coroutine until the scheduler wakes
/// it, returning why. Must be called with no mailbox lock held.
pub(crate) fn yield_blocked(src: usize, tag: u64, clock: f64) -> Verdict {
    suspend(Pending::Block { src, tag, clock })
}

/// Task-side wait in a halo exchange: suspends the current coroutine until
/// `channel`, from `src`, holds a deposit (or `src` terminates), returning
/// why it was resumed.
pub(crate) fn yield_exchange(channel: Arc<Channel>, src: usize, clock: f64) -> Verdict {
    suspend(Pending::Exchange {
        channel,
        src,
        clock,
    })
}

/// Task-side park in the collective `op`: suspends the current coroutine
/// until the rendezvous releases it, returning why. Must be called with no
/// rendezvous lock held.
pub(crate) fn yield_parked(op: &'static str, clock: f64, generation: u64) -> Verdict {
    suspend(Pending::Park {
        op,
        clock,
        generation,
    })
}

fn suspend(pending: Pending) -> Verdict {
    let ctl = CURRENT.with(Cell::get);
    assert!(
        !ctl.is_null(),
        "cooperative blocking outside a scheduler task"
    );
    // SAFETY: `ctl` is the task running on this thread; its worker is
    // suspended in ctx_swap and resumes exactly once we switch back.
    unsafe {
        (*ctl).pending = Some(pending);
        ctx_swap(&mut (*ctl).ctx, (*ctl).ret);
        (*ctl).verdict
    }
}

struct SchedState {
    /// Min-heap of runnable ranks keyed by `(virtual clock, rank)`.
    run_queue: BinaryHeap<Reverse<(u64, usize)>>,
    status: Vec<Status>,
    /// Verdict a queued rank will resume with.
    verdicts: Vec<Verdict>,
    /// `waiters[s]` = ranks currently `Blocked` or `Exchanging` on sender
    /// `s`, so a send or termination wakes its dependents in
    /// O(dependents), not O(size).
    waiters: Vec<Vec<usize>>,
    running: usize,
    /// Workers asleep on the condvar, waiting for a runnable rank. A
    /// wake that finds none skips the condvar, whose notify is a system
    /// call even with no thread waiting.
    idle: usize,
    finished: usize,
    deadlock: Option<String>,
    all_done: bool,
}

/// The shared M:N scheduler for one engine run.
pub(crate) struct Scheduler {
    size: usize,
    state: Mutex<SchedState>,
    cv: Condvar,
}

impl Scheduler {
    /// Creates the scheduler with every rank runnable at virtual time 0.
    pub(crate) fn new(size: usize) -> Arc<Self> {
        let mut run_queue = BinaryHeap::with_capacity(size);
        for rank in 0..size {
            run_queue.push(Reverse((clock_key(0.0), rank)));
        }
        Arc::new(Scheduler {
            size,
            state: Mutex::new(SchedState {
                run_queue,
                status: vec![Status::Runnable; size],
                verdicts: vec![Verdict::Retry; size],
                waiters: vec![Vec::new(); size],
                running: 0,
                idle: 0,
                finished: 0,
                deadlock: None,
                all_done: false,
            }),
            cv: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Releases the lock after a rank was queued, waking one idle worker
    /// if there is one.
    fn wake_worker(&self, s: MutexGuard<'_, SchedState>) {
        let idle = s.idle > 0;
        drop(s);
        if idle {
            self.cv.notify_one();
        }
    }

    /// The deterministic deadlock report, if the run deadlocked.
    pub(crate) fn deadlock_report(&self) -> Option<String> {
        self.lock().deadlock.clone()
    }

    /// Sender-side wake: if `dst` is blocked on exactly `(src, tag)`,
    /// re-queue it. Called by the communicator *after* releasing the
    /// mailbox lock (lock order is scheduler → mailbox, worker side only).
    pub(crate) fn notify_send(&self, src: usize, dst: usize, tag: u64) {
        let mut s = self.lock();
        if let Status::Blocked {
            src: bs,
            tag: bt,
            key,
        } = s.status[dst]
        {
            if bs == src && bt == tag {
                s.waiters[src].retain(|&r| r != dst);
                s.status[dst] = Status::Runnable;
                s.verdicts[dst] = Verdict::Retry;
                s.run_queue.push(Reverse((key, dst)));
                self.wake_worker(s);
            }
        }
    }

    /// Sender-side wake of an exchange: if `dst` is asleep in an exchange
    /// on `src`, re-queue it. Called only when `src`'s exchange found the
    /// channel's `waiting` flag up after its publishes.
    pub(crate) fn notify_exchange(&self, src: usize, dst: usize) {
        let mut s = self.lock();
        if let Status::Exchanging { src: es, key } = s.status[dst] {
            if es == src {
                s.waiters[src].retain(|&r| r != dst);
                s.status[dst] = Status::Runnable;
                s.verdicts[dst] = Verdict::Retry;
                s.run_queue.push(Reverse((key, dst)));
                self.wake_worker(s);
            }
        }
    }

    /// Requeues every rank `Parked` in collective `generation`. Called by
    /// the rank (or worker) that evaluated it, after advancing the
    /// rendezvous generation and with no rendezvous lock held; a rank not
    /// yet registered as parked sees the generation at registration
    /// instead.
    pub(crate) fn wake_parked(&self, generation: u64) {
        let mut s = self.lock();
        let mut woke = false;
        for rank in 0..self.size {
            if let Status::Parked {
                key, generation: g, ..
            } = s.status[rank]
            {
                if g <= generation {
                    s.status[rank] = Status::Runnable;
                    s.verdicts[rank] = Verdict::Retry;
                    s.run_queue.push(Reverse((key, rank)));
                    woke = true;
                }
            }
        }
        if woke && s.idle > 0 {
            drop(s);
            self.cv.notify_all();
        }
    }

    /// Requeues every rank blocked on `dead` so it can observe the
    /// termination flag (raised before this call) and unwind or drain the
    /// final racing message. Runs under the scheduler mutex the caller
    /// already holds.
    fn wake_waiters_locked(s: &mut SchedState, dead: usize) {
        let ws = std::mem::take(&mut s.waiters[dead]);
        for r in ws {
            if let Status::Blocked { key, .. } | Status::Exchanging { key, .. } = s.status[r] {
                s.status[r] = Status::Runnable;
                s.verdicts[r] = Verdict::Retry;
                s.run_queue.push(Reverse((key, r)));
            }
        }
    }

    /// Declares a deadlock if nothing is runnable or running and unfinished
    /// ranks remain: records the report and resumes every blocked rank with
    /// [`Verdict::Deadlock`] so its coroutine unwinds cleanly.
    fn check_deadlock_locked(&self, s: &mut SchedState) {
        if s.deadlock.is_some()
            || s.all_done
            || s.running != 0
            || !s.run_queue.is_empty()
            || s.finished == self.size
        {
            return;
        }
        let blocked: Vec<(usize, String)> = s
            .status
            .iter()
            .enumerate()
            .filter_map(|(r, st)| match *st {
                Status::Blocked { src, tag, .. } => {
                    Some((r, format!("recv(src={src}, tag={tag})")))
                }
                Status::Exchanging { src, .. } => Some((r, format!("exchange(src={src})"))),
                Status::Parked { op, .. } => Some((r, op.to_string())),
                _ => None,
            })
            .collect();
        if blocked.is_empty() {
            return;
        }
        let mut report = format!(
            "job deadlocked: {} rank(s) blocked with nothing runnable:",
            blocked.len()
        );
        for (r, wait) in blocked.iter().take(8) {
            report.push_str(&format!(" rank {r} waits on {wait};"));
        }
        if blocked.len() > 8 {
            report.push_str(&format!(" … and {} more", blocked.len() - 8));
        }
        s.deadlock = Some(report);
        // Stale `waiters` entries are harmless: every wake re-checks that
        // the rank is still `Blocked` or `Exchanging` before touching it.
        for (r, _) in blocked {
            if let Status::Blocked { key, .. }
            | Status::Exchanging { key, .. }
            | Status::Parked { key, .. } = s.status[r]
            {
                s.status[r] = Status::Runnable;
                s.verdicts[r] = Verdict::Deadlock;
                s.run_queue.push(Reverse((key, r)));
            }
        }
        if s.idle > 0 {
            self.cv.notify_all();
        }
    }

    /// One worker of the pool: pops the min-`(virtual_time, rank)` runnable
    /// task, resumes it, and processes what it yielded, until every rank
    /// has finished. The engine's calling thread is worker 0, so a
    /// single-worker run spawns no threads at all.
    pub(crate) fn worker_loop(&self, shared: &SharedComm, tasks: &TaskTable) {
        let mut worker_ctx = Context::new();
        loop {
            let (rank, verdict) = {
                let mut s = self.lock();
                loop {
                    if s.all_done {
                        return;
                    }
                    if let Some(Reverse((_, rank))) = s.run_queue.pop() {
                        debug_assert!(s.status[rank] == Status::Runnable);
                        s.status[rank] = Status::Running;
                        s.running += 1;
                        break (rank, s.verdicts[rank]);
                    }
                    s.idle += 1;
                    s = self
                        .cv
                        .wait(s)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    s.idle -= 1;
                }
            };

            let ctl = tasks.ptr(rank);
            // SAFETY: popping `rank` as Running under the mutex made this
            // worker the task's unique owner; the switch returns only when
            // the task yields on this same thread.
            unsafe {
                debug_assert_eq!((*ctl).rank, rank);
                (*ctl).verdict = verdict;
                (*ctl).ret = &mut worker_ctx;
                CURRENT.with(|c| c.set(ctl));
                ctx_swap(&mut worker_ctx, &(*ctl).ctx);
                CURRENT.with(|c| c.set(std::ptr::null_mut()));
                if !(*ctl).stack.canary_ok() {
                    // The stack already overran its allocation; unwinding
                    // through possibly-corrupt memory would be worse.
                    eprintln!("fatal: rank {rank} overflowed its coroutine stack");
                    std::process::abort();
                }
            }

            // SAFETY: still the unique owner until the status is updated
            // under the mutex below.
            let pending = unsafe { (*ctl).pending.take() }.expect("a yield always sets pending");
            match pending {
                Pending::Block { src, tag, clock } => {
                    let key = clock_key(clock);
                    let mut s = self.lock();
                    s.running -= 1;
                    // Registration re-check: the message (or the sender's
                    // death, or a deadlock declaration) may have raced the
                    // yield; in that case the rank stays runnable.
                    if s.deadlock.is_some()
                        || shared.has_queued(rank, src, tag)
                        || shared.rank_terminated(src)
                    {
                        s.verdicts[rank] = if s.deadlock.is_some() {
                            Verdict::Deadlock
                        } else {
                            Verdict::Retry
                        };
                        s.status[rank] = Status::Runnable;
                        s.run_queue.push(Reverse((key, rank)));
                        self.wake_worker(s);
                    } else {
                        s.status[rank] = Status::Blocked { src, tag, key };
                        s.waiters[src].push(rank);
                        self.check_deadlock_locked(&mut s);
                    }
                }
                Pending::Exchange {
                    channel,
                    src,
                    clock,
                } => {
                    let key = clock_key(clock);
                    let mut s = self.lock();
                    s.running -= 1;
                    // Registration re-check: the deposit (or the sender's
                    // death, or a deadlock declaration) may have raced the
                    // yield; in that case the rank stays runnable.
                    if s.deadlock.is_some()
                        || channel.sleep_unless_ready()
                        || shared.rank_terminated(src)
                    {
                        s.verdicts[rank] = if s.deadlock.is_some() {
                            Verdict::Deadlock
                        } else {
                            Verdict::Retry
                        };
                        s.status[rank] = Status::Runnable;
                        s.run_queue.push(Reverse((key, rank)));
                        self.wake_worker(s);
                    } else {
                        s.status[rank] = Status::Exchanging { src, key };
                        s.waiters[src].push(rank);
                        self.check_deadlock_locked(&mut s);
                    }
                }
                Pending::Park {
                    op,
                    clock,
                    generation,
                } => {
                    let key = clock_key(clock);
                    let mut s = self.lock();
                    s.running -= 1;
                    // Registration re-check: the collective may have been
                    // evaluated (or a deadlock declared) since the park.
                    if s.deadlock.is_some() || shared.rendezvous.is_released(generation) {
                        s.verdicts[rank] = if s.deadlock.is_some() {
                            Verdict::Deadlock
                        } else {
                            Verdict::Retry
                        };
                        s.status[rank] = Status::Runnable;
                        s.run_queue.push(Reverse((key, rank)));
                        self.wake_worker(s);
                    } else {
                        s.status[rank] = Status::Parked {
                            op,
                            key,
                            generation,
                        };
                        self.check_deadlock_locked(&mut s);
                    }
                }
                Pending::Finished => {
                    // Raise the termination flag *before* waking waiters so
                    // a woken receiver that still finds its queue empty can
                    // safely conclude the message will never come.
                    shared.mark_terminated_quiet(rank);
                    let mut s = self.lock();
                    s.running -= 1;
                    s.status[rank] = Status::Finished;
                    s.finished += 1;
                    Self::wake_waiters_locked(&mut s, rank);
                    if s.finished == self.size {
                        s.all_done = true;
                    }
                    self.check_deadlock_locked(&mut s);
                    if s.idle > 0 {
                        drop(s);
                        self.cv.notify_all();
                    }
                }
            }
        }
    }
}
