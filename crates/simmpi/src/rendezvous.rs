//! The symmetric collectives as one rendezvous per call.
//!
//! In `allreduce`, `allreduce_vec`, `barrier` and `allgather` no rank can
//! leave before every rank has entered, so running them as point-to-point
//! trees buys no concurrency: each call would cost `2(p − 1)` messages,
//! mailbox locks and coroutine switches only to let the ranks wait for one
//! another. Instead:
//!
//! * **Arrive.** Each rank deposits its [`Arrival`] — which collective, its
//!   epoch, its payload, and its [`Ledger`] (clock, counters, sequence
//!   numbers, tape) — and parks: as a `Parked` task under the
//!   cooperative engine, on the rendezvous condvar under the thread engine.
//! * **Evaluate.** When every rank has either arrived or terminated, the
//!   arrival or termination that completed the set runs [`evaluate`]: a
//!   worklist over ranks, in the style of [`crate::tape::evaluate`], that
//!   replays the tree schedule hop by hop — the binomial reduce + bcast
//!   rooted at 0, the dissemination barrier, the ring — through the
//!   ledger's own send and receive charges. Each hop therefore prices,
//!   counts and records on the tape exactly what the message would have,
//!   with its per-pair sequence number and jitter key, and the collective's
//!   `Open`/`Close` ops fall where the trees' would; values combine in the
//!   trees' order, so results are bitwise the same.
//! * **Release.** The evaluator advances the rendezvous generation (one
//!   counter releases every rank that arrived) and wakes the parked ranks
//!   under one scheduler lock. Each rank takes
//!   its ledger back and leaves with its result — or with the fault or
//!   poison it would have met inside the tree.
//!
//! Failure follows the trees exactly. The evaluator checks a rank's node
//! loss at every hop where a message-passing rank would (`maybe_fail`
//! before a send, before and after a receive, after a combine), and a rank
//! that died, or terminated without arriving, sends nothing from then on.
//! A rank waiting on such a sender is poisoned at that hop; a rank whose
//! path avoids it completes. So a leaf whose node dies at its broadcast
//! receive leaves rank 0 with a finished allreduce, as before. Ranks that
//! enter different collectives (or the same one at different epochs) all
//! panic with one deterministic message naming the first two that differ.
//!
//! The all-gather's result is one table shared by the job, not a copy per
//! rank.

use crate::collectives::{
    collective_tag, dissemination_partners, dissemination_rounds, tree_child, tree_fanout,
    tree_parent, ReduceOp, SLOT_ALLGATHER, SLOT_BARRIER, SLOT_BCAST, SLOT_REDUCE,
};
use crate::comm::{JobModel, Ledger, Payload, SharedComm, HEADER_BYTES};
use crate::fault::RankFailed;
use crate::tape::{Collective, Op};
use crate::work::Work;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Which symmetric collective a rank entered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Reduce to rank 0 and broadcast back, of `len` values each. `fused`
    /// (`allreduce_vec`) is one traced collective instead of a reduce and a
    /// bcast.
    Allreduce {
        op: ReduceOp,
        len: usize,
        fused: bool,
    },
    /// The dissemination barrier.
    Barrier,
    /// The ring all-gather of `f64`s, or (`usize`) of indices.
    Allgather { usize: bool },
}

impl Kind {
    /// The public operation's name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Kind::Allreduce { fused: false, .. } => "allreduce",
            Kind::Allreduce { fused: true, .. } => "allreduce_vec",
            Kind::Barrier => "barrier",
            Kind::Allgather { usize: false } => "allgather",
            Kind::Allgather { usize: true } => "allgather_usize",
        }
    }

    /// Collective epochs (tag blocks) the call consumes on a job of `size`
    /// ranks: the reduce and the bcast take one each, and a one-rank
    /// barrier sends nothing and takes none.
    pub(crate) fn epochs(self, size: usize) -> u64 {
        match self {
            Kind::Allreduce { .. } => 2,
            Kind::Barrier => u64::from(size > 1),
            Kind::Allgather { .. } => 1,
        }
    }

    fn describe(self, epoch: u64) -> String {
        match self {
            Kind::Allreduce { op, len, .. } => {
                format!("{}({op:?}, {len} values) at epoch {epoch}", self.name())
            }
            _ => format!("{} at epoch {epoch}", self.name()),
        }
    }
}

/// What a rank deposits when it enters a collective.
pub(crate) struct Arrival {
    pub(crate) kind: Kind,
    pub(crate) epoch: u64,
    pub(crate) data: Payload,
    pub(crate) ledger: Ledger,
}

/// What a completed collective hands a rank.
#[derive(Clone)]
pub(crate) enum Yield {
    /// An all-reduce's result.
    Values(Vec<f64>),
    /// An all-gather's table of `f64`s.
    F64s(Arc<[Vec<f64>]>),
    /// An all-gather's table of indices.
    Usizes(Arc<[Vec<usize>]>),
    /// A barrier's.
    Done,
}

/// How a rank leaves a collective it did not complete.
pub(crate) enum Fate {
    /// Its node died at one of its hops.
    Fault(RankFailed),
    /// A panic message: a poisoned rank's (`job poisoned: …`) or a
    /// mismatched call's.
    Panic(String),
}

/// A rank's ledger back, with its result or its fate.
pub(crate) struct Release {
    pub(crate) ledger: Ledger,
    pub(crate) outcome: Result<Yield, Fate>,
}

enum Slot {
    Empty,
    Arrived(Arrival),
    Released(Release),
}

struct Table {
    /// One per rank; allocated on the job's first collective.
    slots: Vec<Slot>,
    /// Ranks arrived at the open collective.
    arrived: usize,
    /// Ranks that have terminated: they will arrive at nothing.
    gone: usize,
    /// The evaluator's working memory, kept from one collective to the
    /// next.
    scratch: Scratch,
}

/// The job's meeting point. At most one collective is open at a time: a
/// rank reaches the next one only after taking its release from this one.
pub(crate) struct Rendezvous {
    table: Mutex<Table>,
    /// Where the thread engine's parked ranks wait.
    cv: Condvar,
    /// Collectives evaluated so far. A rank that arrived at collective `g`
    /// (counting from 0) is released once this exceeds `g`; the
    /// cooperative scheduler's park registration reads it.
    generation: AtomicU64,
}

impl Rendezvous {
    pub(crate) fn new() -> Self {
        Rendezvous {
            table: Mutex::new(Table {
                slots: Vec::new(),
                arrived: 0,
                gone: 0,
                scratch: Scratch::default(),
            }),
            cv: Condvar::new(),
            generation: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Table> {
        self.table
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Whether the ranks that arrived at collective `generation` are
    /// released.
    pub(crate) fn is_released(&self, generation: u64) -> bool {
        self.generation.load(Ordering::SeqCst) > generation
    }

    /// `rank`'s release.
    fn take(&self, rank: usize) -> Release {
        match std::mem::replace(&mut self.lock().slots[rank], Slot::Empty) {
            Slot::Released(r) => r,
            _ => unreachable!("a released rank's slot holds its release"),
        }
    }

    /// A deadlock victim's ledger, arrived or already released.
    fn withdraw(&self, rank: usize) -> Ledger {
        let mut t = self.lock();
        match std::mem::replace(&mut t.slots[rank], Slot::Empty) {
            Slot::Arrived(a) => {
                t.arrived -= 1;
                a.ledger
            }
            Slot::Released(r) => r.ledger,
            Slot::Empty => unreachable!("a parked rank's slot holds its ledger"),
        }
    }
}

impl SharedComm {
    /// Deposits `rank`'s arrival and returns its release: at once if this
    /// arrival completed the collective (the caller then evaluated it),
    /// else after parking until the rank or termination that completes it
    /// does.
    pub(crate) fn rendezvous(&self, rank: usize, arrival: Arrival) -> Release {
        let (op, clock) = (arrival.kind.name(), arrival.ledger.clock);
        let mut t = self.rendezvous.lock();
        if t.slots.is_empty() {
            t.slots.resize_with(self.model.size, || Slot::Empty);
        }
        let generation = self.rendezvous.generation.load(Ordering::SeqCst);
        t.slots[rank] = Slot::Arrived(arrival);
        t.arrived += 1;
        if t.arrived + t.gone == self.model.size {
            self.complete(t);
        } else {
            drop(t);
            if !self.park(generation, op, clock) {
                return Release {
                    ledger: self.rendezvous.withdraw(rank),
                    outcome: Err(Fate::Panic(format!(
                        "job poisoned: deadlock victim rank {rank} parked in {op}"
                    ))),
                };
            }
        }
        self.rendezvous.take(rank)
    }

    /// Counts a terminated rank, and completes the open collective if it
    /// was the last rank missing.
    pub(crate) fn rank_gone(&self) {
        let mut t = self.rendezvous.lock();
        t.gone += 1;
        if t.arrived > 0 && t.arrived + t.gone == self.model.size {
            self.complete(t);
        }
    }

    /// Evaluates the open collective and releases every arrived rank.
    fn complete(&self, mut t: MutexGuard<'_, Table>) {
        let Table { slots, scratch, .. } = &mut *t;
        evaluate(&self.model, slots, scratch);
        t.arrived = 0;
        let generation = self.rendezvous.generation.fetch_add(1, Ordering::SeqCst);
        drop(t);
        match &self.coop {
            Some(sched) => sched.wake_parked(generation),
            None => self.rendezvous.cv.notify_all(),
        }
    }

    /// Waits until collective `generation` is evaluated (`true`) or, under
    /// the cooperative engine, the rank is resumed as a deadlock victim
    /// (`false`). The thread engine hangs on a deadlock, as its receives
    /// do.
    fn park(&self, generation: u64, op: &'static str, clock: f64) -> bool {
        let rv = &self.rendezvous;
        if self.coop.is_none() {
            let mut t = rv.lock();
            while !rv.is_released(generation) {
                t = rv
                    .cv
                    .wait(t)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            return true;
        }
        crate::sched::yield_parked(op, clock, generation) == crate::sched::Verdict::Retry
    }
}

/// One hop of a rank's schedule in a symmetric collective.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// The barrier's entry check: a dead node is observed even by a rank
    /// with nothing to send.
    Check,
    Send {
        to: usize,
        bytes: f64,
    },
    Recv {
        from: usize,
        tag: u64,
    },
    /// Folds the reduce contribution just received from `from` into this
    /// rank's, charging the combine's flops.
    Combine {
        from: usize,
    },
    /// Records a collective's `Open` or `Close` on the tape.
    Tape(Op),
}

/// Every rank's schedule of one collective call.
struct Plan<'a> {
    kind: Kind,
    size: usize,
    epoch: u64,
    /// All-gather: the modeled bytes of a message carrying each rank's
    /// block.
    block_bytes: &'a [f64],
}

impl Plan<'_> {
    /// Step `pc` of `rank`'s schedule; `None` once the rank is through.
    fn step(&self, rank: usize, pc: usize) -> Option<Step> {
        let size = self.size;
        match self.kind {
            Kind::Allreduce { len, fused, .. } => {
                let bytes = 8.0 * len as f64 + HEADER_BYTES;
                let k = tree_fanout(rank, size) as usize;
                let parent = tree_parent(rank);
                let has_parent = usize::from(parent.is_some());
                let mut pc = pc;
                if pc < 2 * k {
                    let from = tree_child(rank, pc / 2);
                    return Some(if pc.is_multiple_of(2) {
                        Step::Recv {
                            from,
                            tag: collective_tag(self.epoch, SLOT_REDUCE),
                        }
                    } else {
                        Step::Combine { from }
                    });
                }
                pc -= 2 * k;
                if let (Some(to), 0) = (parent, pc) {
                    return Some(Step::Send { to, bytes });
                }
                pc -= has_parent;
                if !fused {
                    match pc {
                        0 => return Some(Step::Tape(Op::Close(Collective::Reduce))),
                        1 => return Some(Step::Tape(Op::Open)),
                        _ => pc -= 2,
                    }
                }
                if let (Some(from), 0) = (parent, pc) {
                    let tag = collective_tag(self.epoch + 1, SLOT_BCAST);
                    return Some(Step::Recv { from, tag });
                }
                pc -= has_parent;
                if pc < k {
                    let to = tree_child(rank, k - 1 - pc);
                    return Some(Step::Send { to, bytes });
                }
                let close = if fused {
                    Collective::AllreduceFused
                } else {
                    Collective::Bcast
                };
                (pc == k).then_some(Step::Tape(Op::Close(close)))
            }
            Kind::Barrier => {
                let rounds = dissemination_rounds(size) as usize;
                match pc {
                    0 => Some(Step::Check),
                    pc if pc <= 2 * rounds => {
                        let (to, from) = dissemination_partners(rank, size, (pc - 1) / 2);
                        Some(if pc % 2 == 1 {
                            Step::Send {
                                to,
                                bytes: HEADER_BYTES,
                            }
                        } else {
                            Step::Recv {
                                from,
                                tag: collective_tag(self.epoch, SLOT_BARRIER),
                            }
                        })
                    }
                    pc if pc == 2 * rounds + 1 => Some(Step::Tape(Op::Close(Collective::Barrier))),
                    _ => None,
                }
            }
            Kind::Allgather { .. } => {
                let hops = 2 * (size - 1);
                if pc < hops {
                    // At round s, forward the block that originated at
                    // rank - s; receive the one from rank - s - 1.
                    let s = pc / 2;
                    Some(if pc.is_multiple_of(2) {
                        Step::Send {
                            to: (rank + 1) % size,
                            bytes: self.block_bytes[(rank + size - s) % size],
                        }
                    } else {
                        Step::Recv {
                            from: (rank + size - 1) % size,
                            tag: collective_tag(self.epoch, SLOT_ALLGATHER),
                        }
                    })
                } else {
                    (pc == hops).then_some(Step::Tape(Op::Close(Collective::Allgather)))
                }
            }
        }
    }
}

/// A message in flight inside the evaluator.
struct Msg {
    src: usize,
    seq: u64,
    bytes: f64,
    depart: f64,
}

/// One rank's progress through the evaluator.
struct Runner {
    pc: usize,
    node: usize,
    down_at: f64,
    /// The all-reduce accumulator: the rank's contribution, then partial
    /// results as its children are combined in, then (handed back to the
    /// rank) the result.
    acc: Vec<f64>,
    /// The rank this one waits on, if blocked.
    waiting_on: Option<usize>,
    /// `false` for a rank that terminated without arriving.
    arrived: bool,
    fate: Option<Fate>,
}

impl Runner {
    /// Whether this rank will send nothing more.
    fn silent(&self) -> bool {
        !self.arrived || self.fate.is_some()
    }
}

/// The evaluator's working memory.
#[derive(Default)]
struct Scratch {
    run: Vec<Runner>,
    /// Messages in flight, per receiver.
    inbox: Vec<Vec<Msg>>,
    runnable: Vec<usize>,
    block_bytes: Vec<f64>,
}

/// How a rank's run through its schedule stopped.
enum Stop {
    Through,
    Blocked(usize),
    Died(Fate),
}

fn ledger_of(slots: &mut [Slot], rank: usize) -> &mut Ledger {
    match &mut slots[rank] {
        Slot::Arrived(a) => &mut a.ledger,
        _ => unreachable!("only arrived ranks run"),
    }
}

/// Evaluates one collective over every rank's arrival in `slots` and turns
/// each arrival into a release. Ranks without an arrival have terminated.
fn evaluate(model: &JobModel, slots: &mut [Slot], scratch: &mut Scratch) {
    let size = slots.len();
    let signature = |s: &Slot| match s {
        Slot::Arrived(a) => Some((a.kind, a.epoch)),
        _ => None,
    };
    let mut entered = slots
        .iter()
        .enumerate()
        .filter_map(|(r, s)| Some((r, signature(s)?)));
    let (first, (kind, epoch)) = entered
        .next()
        .expect("a collective completes with an arrival");
    if let Some((other, (k, e))) = entered.find(|&(_, sig)| sig != (kind, epoch)) {
        let msg = format!(
            "collective mismatch: rank {first} entered {} but rank {other} entered {}",
            kind.describe(epoch),
            k.describe(e)
        );
        release(slots, |_| Err(Fate::Panic(msg.clone())));
        return;
    }

    let Scratch {
        run,
        inbox,
        runnable,
        block_bytes,
    } = scratch;
    block_bytes.clear();
    if let Kind::Allgather { .. } = kind {
        block_bytes.extend(slots.iter().map(|s| match s {
            Slot::Arrived(a) => a.data.body_bytes() + HEADER_BYTES,
            _ => 0.0,
        }));
    }
    let plan = Plan {
        kind,
        size,
        epoch,
        block_bytes,
    };
    run.clear();
    run.extend(slots.iter_mut().enumerate().map(|(rank, slot)| {
        let node = model.topo.node_of_rank(rank);
        let mut runner = Runner {
            pc: 0,
            node,
            down_at: model.faults.down_time(node),
            acc: Vec::new(),
            waiting_on: None,
            arrived: false,
            fate: None,
        };
        if let Slot::Arrived(a) = slot {
            runner.arrived = true;
            if let (Kind::Allreduce { .. }, Payload::F64(v)) = (kind, &mut a.data) {
                runner.acc = std::mem::take(v);
            }
        }
        runner
    }));
    inbox.resize_with(size, Vec::new);
    inbox.iter_mut().for_each(Vec::clear);
    runnable.clear();
    runnable.extend((0..size).rev().filter(|&r| run[r].arrived));

    while let Some(r) = runnable.pop() {
        let stop = loop {
            let Some(step) = plan.step(r, run[r].pc) else {
                break Stop::Through;
            };
            let ledger = ledger_of(slots, r);
            let (node, down_at) = (run[r].node, run[r].down_at);
            let fault = || Stop::Died(Fate::Fault(RankFailed { node, at: down_at }));
            match step {
                Step::Check => {
                    if ledger.clock >= down_at {
                        break fault();
                    }
                }
                Step::Send { to, bytes } => {
                    if ledger.clock >= down_at {
                        break fault();
                    }
                    let seq = ledger.send(model, to, bytes);
                    inbox[to].push(Msg {
                        src: r,
                        seq,
                        bytes,
                        depart: ledger.clock,
                    });
                    if run[to].waiting_on == Some(r) {
                        run[to].waiting_on = None;
                        runnable.push(to);
                    }
                }
                Step::Recv { from, tag } => {
                    if ledger.clock >= down_at {
                        break fault();
                    }
                    let Some(at) = inbox[r].iter().position(|m| m.src == from) else {
                        if run[from].silent() {
                            break Stop::Died(Fate::Panic(format!(
                                "job poisoned: rank {r} waited on ({from}, {tag}) but the sender is gone"
                            )));
                        }
                        break Stop::Blocked(from);
                    };
                    let m = inbox[r].remove(at);
                    ledger.recv(model, r, from, m.seq, m.bytes, m.depart);
                    if ledger.clock >= down_at {
                        break fault();
                    }
                }
                Step::Combine { from } => {
                    let Kind::Allreduce { op, .. } = kind else {
                        unreachable!("only the reduce combines")
                    };
                    // A child's relative rank is above its parent's.
                    let (parents, children) = run.split_at_mut(from);
                    let acc = &mut parents[r].acc;
                    op.apply(acc, &children[0].acc);
                    let n = acc.len() as f64;
                    ledger.compute(model, Work::new(n, 16.0 * n));
                    if ledger.clock >= down_at {
                        break fault();
                    }
                }
                Step::Tape(op) => ledger.record(op),
            }
            run[r].pc += 1;
        };
        match stop {
            Stop::Through => {}
            Stop::Blocked(from) => run[r].waiting_on = Some(from),
            Stop::Died(fate) => {
                run[r].fate = Some(fate);
                // Whoever waits on a rank that will send nothing more
                // re-checks, and is poisoned.
                for (q, other) in run.iter_mut().enumerate() {
                    if other.waiting_on == Some(r) {
                        other.waiting_on = None;
                        runnable.push(q);
                    }
                }
            }
        }
    }

    // Every arrived rank is now through or dead: a sender is never blocked
    // on its receiver in these schedules.
    debug_assert!(run.iter().all(|x| x.waiting_on.is_none()));
    // What every rank that completed gets: its own accumulator, overwritten
    // with rank 0's result, or one shared yield.
    let shared = match kind {
        Kind::Allreduce { .. } => {
            let (root, rest) = run.split_first_mut().expect("a job has ranks");
            for other in rest.iter_mut().filter(|x| x.arrived && x.fate.is_none()) {
                other.acc.copy_from_slice(&root.acc);
            }
            None
        }
        Kind::Barrier => Some(Yield::Done),
        Kind::Allgather { usize: false } => Some(Yield::F64s(gathered(slots, |p| match p {
            Payload::F64(v) => v,
            _ => Vec::new(),
        }))),
        Kind::Allgather { usize: true } => Some(Yield::Usizes(gathered(slots, |p| match p {
            Payload::Usize(v) => v,
            _ => Vec::new(),
        }))),
    };
    release(slots, |rank| match (run[rank].fate.take(), &shared) {
        (Some(fate), _) => Err(fate),
        (None, None) => Ok(Yield::Values(std::mem::take(&mut run[rank].acc))),
        (None, Some(all)) => Ok(all.clone()),
    });
}

/// The all-gather's table: every arrived rank's block, moved out of its
/// arrival. (Only a rank that received every block completes, so a
/// completed rank never reads the empty block of a rank that did not
/// arrive.)
fn gathered<T>(slots: &mut [Slot], block: impl Fn(Payload) -> Vec<T>) -> Arc<[Vec<T>]> {
    slots
        .iter_mut()
        .map(|s| match s {
            Slot::Arrived(a) => block(std::mem::replace(&mut a.data, Payload::Empty)),
            _ => Vec::new(),
        })
        .collect()
}

/// Turns every arrival into a release with the outcome `outcome` gives its
/// rank.
fn release(slots: &mut [Slot], mut outcome: impl FnMut(usize) -> Result<Yield, Fate>) {
    for (rank, slot) in slots.iter_mut().enumerate() {
        if let Slot::Arrived(a) = std::mem::replace(slot, Slot::Empty) {
            *slot = Slot::Released(Release {
                ledger: a.ledger,
                outcome: outcome(rank),
            });
        }
    }
}
