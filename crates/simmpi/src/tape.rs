//! Work tapes: one executed run's charges, priced again on any platform,
//! and the source of the run's trace.
//!
//! A rank's virtual clock is a pure function of its own ordered charges and
//! of the departure times of the messages it receives:
//!
//! * the network model is static (a message's price depends on the
//!   endpoints, its size, its per-pair sequence number and its departure
//!   time, never on what else is in flight);
//! * matching is exact per-`(src, tag)` FIFO, so which send a receive
//!   matches is fixed by the program, not by host scheduling;
//! * collectives are priced as point-to-point trees whose shape ignores
//!   the topology; the symmetric ones are evaluated in one rendezvous
//!   (`crate::rendezvous`), which records every hop on the tape as the
//!   `Send`/`Recv` the message would have, so a tape cannot tell them
//!   from messages;
//! * application control flow never reads the clock, except through
//!   [`SimComm::phase_mark`](crate::SimComm::phase_mark).
//!
//! So the charges themselves — what a rank computes, sends and receives,
//! in order — do not depend on the platform or the seed. A job can record
//! them as one tape per rank ([`crate::engine::run_spmd_recorded`]), and
//! [`evaluate`] prices the recorded [`WorkTape`] on any [`SpmdConfig`]
//! without running the program: no coroutines, payloads or mailboxes, a
//! worklist over ranks that is linear in the number of ops. Every clock
//! update goes through the same pure charge functions as
//! [`SimComm`](crate::SimComm)'s (`JobModel` and `Transfer` in `comm`), so
//! each priced clock is the executed clock bitwise, by construction rather
//! than by approximation.
//!
//! **A trace is a view of the tape.** No op stores a clock: every event
//! follows from one op and the clock evaluation gives it (`SendMsg` and
//! `RecvMsg` from `Send`, `Recv` and `Wait`, `Overlap` from a batch of
//! `Wait`s, a collective span from `Open`/`Close`, phase spans from
//! `Mark`s, application events from `Instant`), and [`evaluate`] emits them
//! as it prices. A traced job ([`crate::engine::run_spmd_opts`]) records
//! every rank's tape unbounded, a dying rank's ending where it stopped, and
//! evaluates them under its own fault plan after the ranks exit.
//!
//! An untraced tape is bounded: the job's byte budget is split evenly
//! across ranks, and a rank that outgrows its share stops recording, drops
//! what it holds and tells the job, which then keeps no tape at all.

use crate::comm::{JobModel, PeerMap};
use crate::engine::SpmdConfig;
use crate::fault::FaultPlan;
use crate::work::Work;
use hetero_trace::{EventKind, Phase, Trace, TraceDetail, TraceEvent, TraceSpec};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One recorded charge or boundary. Sixteen bytes, so a share of `b` bytes
/// holds `b / 16` ops and interned works together.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Op {
    /// A compute charge: an index into the rank's interned works.
    Compute(u32),
    /// A send of `bytes` modeled bytes to `dst`.
    Send { dst: u32, bytes: f64 },
    /// A blocking receive of the `seq`-th message from `src` to this rank.
    Recv { src: u32, seq: u32 },
    /// A receive posted by an exchange's post or by `irecv` (the clock is
    /// the post time).
    Post,
    /// The completion of post number `post` by the `seq`-th message from
    /// `src`; `last` ends a batch of waits.
    Wait {
        src: u32,
        seq: u32,
        post: u32,
        last: bool,
    },
    /// A clock advance that charges no work (checkpoint I/O).
    Advance(f64),
    /// A phase boundary of time step `step`: the application read the
    /// clock (see [`SimComm::phase_mark`](crate::SimComm::phase_mark)).
    Mark { step: u32, closes: Option<Phase> },
    /// A collective operation begins.
    Open,
    /// The collective operation that began last ends.
    Close(Collective),
    /// The application's event number `i` of the rank's events.
    Instant(u32),
}

/// Size of one tape unit: an [`Op`], or an interned [`Work`].
const UNIT_BYTES: usize = std::mem::size_of::<Op>();
const _: () = assert!(UNIT_BYTES == 16 && std::mem::size_of::<Work>() == UNIT_BYTES);

/// The collective operations a trace names: what [`Op::Close`] carries,
/// an index into [`COLLECTIVE_NAMES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Collective {
    Reduce,
    Bcast,
    Gather,
    AllreduceFused,
    Barrier,
    Allgather,
}

/// Each [`Collective`]'s name in a trace.
const COLLECTIVE_NAMES: [&str; 6] = [
    "reduce",
    "bcast",
    "gather",
    "allreduce_fused",
    "barrier",
    "allgather",
];

/// One rank's recorded charges, in program order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RankTape {
    ops: Vec<Op>,
    /// The distinct works the rank charged, indexed by [`Op::Compute`].
    works: Vec<Work>,
    /// The events the application added, indexed by [`Op::Instant`].
    events: Vec<EventKind>,
}

impl RankTape {
    fn bytes(&self) -> usize {
        (self.ops.len() + self.works.len()) * UNIT_BYTES
            + self.events.len() * std::mem::size_of::<EventKind>()
    }
}

/// Every rank's recorded charges of one completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkTape {
    ranks: Vec<RankTape>,
}

impl WorkTape {
    /// Bytes all ranks' tapes hold.
    pub fn bytes(&self) -> usize {
        self.ranks.iter().map(RankTape::bytes).sum()
    }
}

/// What pricing one rank's tape yields.
#[derive(Debug, Clone, PartialEq)]
pub struct RankClock {
    /// The rank's virtual clock at exit, in seconds.
    pub clock: f64,
    /// The clock at each [`crate::SimComm::phase_mark`], in order.
    pub marks: Vec<f64>,
}

/// One rank's recorder, held by its [`crate::SimComm`] while the job runs.
pub(crate) struct Recorder {
    ops: Vec<Op>,
    works: Vec<Work>,
    events: Vec<EventKind>,
    /// `(flops, bytes)` bit patterns to their index in `works`.
    interned: HashMap<(u64, u64), u32>,
    posts: u32,
    /// This rank's share of the job budget, in units.
    max_units: usize,
    /// Raised by the first rank of the job that gives up.
    abandoned: Arc<AtomicBool>,
}

impl Recorder {
    /// Appends `op`; `false` once the rank has given up (its share is
    /// spent, or another rank of the job gave up first), after which the
    /// caller drops the recorder.
    #[inline]
    pub(crate) fn push(&mut self, op: Op) -> bool {
        if self.ops.len() == self.ops.capacity() {
            let Some(extra) = self.room(self.ops.capacity().max(64)) else {
                return false;
            };
            self.ops.reserve_exact(extra);
        }
        if matches!(op, Op::Post) {
            self.posts += 1;
        }
        self.ops.push(op);
        true
    }

    /// Records a compute charge of `work`, interning it.
    #[inline]
    pub(crate) fn compute(&mut self, work: Work) -> bool {
        let key = (work.flops.to_bits(), work.bytes.to_bits());
        let index = match self.interned.get(&key) {
            Some(&i) => i,
            None => {
                if self.works.len() == self.works.capacity() {
                    let Some(extra) = self.room(self.works.capacity().max(16)) else {
                        return false;
                    };
                    self.works.reserve_exact(extra);
                }
                let i = self.works.len() as u32;
                self.works.push(work);
                self.interned.insert(key, i);
                i
            }
        };
        self.push(Op::Compute(index))
    }

    /// Records the application's event `kind`. Events are a few per step,
    /// so they are held outside the share.
    pub(crate) fn instant(&mut self, kind: EventKind) -> bool {
        self.events.push(kind);
        self.push(Op::Instant(self.events.len() as u32 - 1))
    }

    /// Marks the last op, the last `Wait` of a batch, as the batch's end.
    pub(crate) fn end_batch(&mut self) {
        if let Some(Op::Wait { last, .. }) = self.ops.last_mut() {
            *last = true;
        }
    }

    /// Posts recorded so far: the index the next [`Op::Post`] gets.
    pub(crate) fn posts(&self) -> u32 {
        self.posts
    }

    /// How many of the `wanted` units a full vector may grow by, or
    /// `None` once the share is spent or another rank has given up.
    /// Checked only here, at the rare growth points, so the per-op cost is
    /// the vector's own capacity test; and because growth never reserves
    /// past the share, a rank allocates at most its share.
    #[cold]
    fn room(&self, wanted: usize) -> Option<usize> {
        let committed = self.ops.capacity() + self.works.capacity();
        if committed >= self.max_units {
            self.abandoned.store(true, Ordering::Relaxed);
            return None;
        }
        if self.abandoned.load(Ordering::Relaxed) {
            return None;
        }
        Some(wanted.min(self.max_units - committed))
    }
}

impl From<Recorder> for RankTape {
    fn from(mut r: Recorder) -> Self {
        r.ops.shrink_to_fit();
        r.works.shrink_to_fit();
        r.events.shrink_to_fit();
        RankTape {
            ops: r.ops,
            works: r.works,
            events: r.events,
        }
    }
}

/// A recording job's shared state: the per-rank share, and the flag the
/// first rank to give up raises.
pub(crate) struct TapeBudget {
    share_units: usize,
    abandoned: Arc<AtomicBool>,
}

impl TapeBudget {
    /// The budget of a job of `size` ranks that may hold `budget_bytes` of
    /// tape in all (`usize::MAX`: no bound).
    pub(crate) fn new(size: usize, budget_bytes: usize) -> Self {
        TapeBudget {
            share_units: budget_bytes / size.max(1) / UNIT_BYTES,
            abandoned: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A fresh recorder for one rank.
    pub(crate) fn recorder(&self) -> Recorder {
        Recorder {
            ops: Vec::new(),
            works: Vec::new(),
            events: Vec::new(),
            interned: HashMap::new(),
            posts: 0,
            max_units: self.share_units,
            abandoned: Arc::clone(&self.abandoned),
        }
    }

    /// The job's tape from every rank's, in rank order: none if a rank gave
    /// up or kept no tape.
    pub(crate) fn collect(&self, ranks: Vec<Option<RankTape>>) -> Option<WorkTape> {
        if self.abandoned.load(Ordering::Relaxed) {
            return None;
        }
        ranks
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .map(|ranks| WorkTape { ranks })
    }
}

/// Prices `tape` on `config`, failure-free: every rank's final clock and
/// phase marks, bitwise what executing the recorded program on `config`
/// with no faults would give, and, when asked for, the trace at `trace`'s
/// detail that executing it there records.
///
/// A worklist over ranks: each runs its ops until a receive whose message
/// has not departed yet, and is resumed when the sender gets there. Linear
/// in the number of ops.
///
/// # Panics
/// Panics if `config.size` differs from the tape's rank count, or if the
/// tape cannot complete (which a recorded tape never does).
pub fn evaluate(
    tape: &WorkTape,
    config: &SpmdConfig,
    trace: Option<TraceSpec>,
) -> (Vec<RankClock>, Option<Trace>) {
    let size = tape.ranks.len();
    assert_eq!(config.size, size, "tape recorded for {size} ranks");
    let ranks: Vec<&RankTape> = tape.ranks.iter().collect();
    let model = JobModel::new(config.clone(), FaultPlan::none());
    let detail = trace.map(|spec| spec.detail);
    let (clocks, events) = price(&ranks, &model, detail);
    (clocks, detail.map(|_| Trace::from_ranks(events)))
}

/// The trace at `detail` of a job's tapes, one per rank and each ending
/// where its rank stopped, priced under the job's own `model` (its fault
/// plan's slow windows included).
pub(crate) fn trace(tapes: &[&RankTape], model: &JobModel, detail: TraceDetail) -> Trace {
    Trace::from_ranks(price(tapes, model, Some(detail)).1)
}

/// What one rank's evaluation implies for its trace, and the state it
/// needs to say so.
struct Observer {
    detail: TraceDetail,
    rank: u32,
    events: Vec<TraceEvent>,
    /// Modeled bytes sent so far: a collective's bytes are the difference
    /// across it.
    sent: f64,
    /// Clock and `sent` where the open collective began.
    open: (f64, f64),
    /// Waits, hidden and exposed seconds of the open batch.
    batch: (u32, f64, f64),
    /// Clocks of the step's start and of its last mark.
    step: (f64, f64),
}

impl Observer {
    fn emit(&mut self, at: f64, dur: f64, kind: EventKind) {
        self.events.push(TraceEvent {
            at,
            dur,
            rank: self.rank,
            seq: self.events.len() as u64,
            kind,
        });
    }

    /// A phase span from the step's last mark to `clock`.
    fn phase(&mut self, phase: Phase, step: u32, clock: f64) {
        let from = self.step.1;
        self.emit(from, clock - from, EventKind::Phase { phase, step });
        self.step.1 = clock;
    }
}

/// Prices `tapes` under `model` and, at `detail`, lists the events each
/// rank's ops imply, in program order.
fn price(
    tapes: &[&RankTape],
    model: &JobModel,
    detail: Option<TraceDetail>,
) -> (Vec<RankClock>, Vec<Vec<TraceEvent>>) {
    let size = tapes.len();

    struct Rank {
        pc: usize,
        clock: f64,
        /// Clock advance of each interned work.
        costs: Vec<f64>,
        posts: Vec<f64>,
        marks: Vec<f64>,
        obs: Option<Observer>,
    }
    let mut ranks: Vec<Rank> = tapes
        .iter()
        .enumerate()
        .map(|(r, t)| Rank {
            pc: 0,
            clock: 0.0,
            costs: t.works.iter().map(|&w| model.compute_cost(w)).collect(),
            posts: Vec::new(),
            marks: Vec::new(),
            obs: detail.map(|detail| Observer {
                detail,
                rank: r as u32,
                // No op implies more than two events; untouched capacity
                // costs address space only.
                events: Vec::with_capacity(t.ops.len()),
                sent: 0.0,
                open: (0.0, 0.0),
                batch: (0, 0.0, 0.0),
                step: (0.0, 0.0),
            }),
        })
        .collect();
    // `sent[src]` maps each destination to the `(departure, bytes)` of
    // every message `src` has sent it so far, indexed by sequence number.
    let mut sent: Vec<PeerMap<Vec<(f64, f64)>>> = (0..size).map(|_| PeerMap::default()).collect();
    // The source each blocked rank waits on.
    let mut waiting_on: Vec<Option<usize>> = vec![None; size];
    let mut runnable: Vec<usize> = (0..size).rev().collect();

    while let Some(r) = runnable.pop() {
        let tape = tapes[r];
        let me = &mut ranks[r];
        while let Some(&op) = tape.ops.get(me.pc) {
            match op {
                Op::Compute(i) => me.clock += me.costs[i as usize],
                Op::Advance(seconds) => me.clock += seconds,
                Op::Send { dst, bytes } => {
                    me.clock += model.send_cost(bytes);
                    sent[r].get_or_default(dst as usize).push((me.clock, bytes));
                    if waiting_on[dst as usize] == Some(r) {
                        waiting_on[dst as usize] = None;
                        runnable.push(dst as usize);
                    }
                    if let Some(o) = me.obs.as_mut() {
                        o.sent += bytes;
                        if o.detail == TraceDetail::Messages {
                            o.emit(me.clock, 0.0, EventKind::SendMsg { peer: dst, bytes });
                        }
                    }
                }
                Op::Recv { src, seq } | Op::Wait { src, seq, .. } => {
                    let Some(&(depart, bytes)) =
                        sent[src as usize].get(r).and_then(|m| m.get(seq as usize))
                    else {
                        waiting_on[r] = Some(src as usize);
                        break;
                    };
                    let t = model.transfer(src as usize, r, u64::from(seq), bytes, depart);
                    let before = me.clock;
                    let avail = match op {
                        Op::Wait { post, .. } => {
                            let avail;
                            (me.clock, avail) = t.wait(before, me.posts[post as usize], depart);
                            Some(avail)
                        }
                        _ => {
                            me.clock = t.recv(before, depart);
                            None
                        }
                    };
                    if let Some(o) = me.obs.as_mut() {
                        if o.detail == TraceDetail::Messages {
                            let kind = EventKind::RecvMsg { peer: src, bytes };
                            o.emit(before, me.clock - before, kind);
                        }
                        if let (Some(avail), Op::Wait { last, .. }) = (avail, op) {
                            // The part of the wire time compute or earlier
                            // waits covered, and the part that stalled.
                            let stall = (avail - before).max(0.0);
                            let (msgs, hidden, exposed) = &mut o.batch;
                            *msgs += 1;
                            *hidden += (avail - depart - stall).max(0.0);
                            *exposed += stall;
                            if last {
                                let (msgs, hidden, exposed) = std::mem::take(&mut o.batch);
                                if o.detail >= TraceDetail::Collectives {
                                    let kind = EventKind::Overlap {
                                        msgs,
                                        hidden,
                                        exposed,
                                    };
                                    o.emit(me.clock, 0.0, kind);
                                }
                            }
                        }
                    }
                }
                Op::Post => me.posts.push(me.clock),
                Op::Mark { step, closes } => {
                    me.marks.push(me.clock);
                    if let Some(o) = me.obs.as_mut() {
                        match closes {
                            None => o.step = (me.clock, me.clock),
                            Some(Phase::Iteration) => {
                                o.phase(Phase::Other, step, me.clock);
                                let start = o.step.0;
                                let phase = Phase::Iteration;
                                o.emit(start, me.clock - start, EventKind::Phase { phase, step });
                            }
                            Some(phase) => o.phase(phase, step, me.clock),
                        }
                    }
                }
                Op::Open => {
                    if let Some(o) = me.obs.as_mut() {
                        o.open = (me.clock, o.sent);
                    }
                }
                Op::Close(op) => {
                    if let Some(o) = me
                        .obs
                        .as_mut()
                        .filter(|o| o.detail >= TraceDetail::Collectives)
                    {
                        let (start, bytes) = (o.open.0, o.sent - o.open.1);
                        let kind = EventKind::Collective {
                            op: COLLECTIVE_NAMES[op as usize],
                            bytes,
                        };
                        o.emit(start, me.clock - start, kind);
                    }
                }
                Op::Instant(i) => {
                    if let Some(o) = me.obs.as_mut() {
                        o.emit(me.clock, 0.0, tape.events[i as usize]);
                    }
                }
            }
            me.pc += 1;
        }
    }

    ranks
        .into_iter()
        .zip(tapes)
        .enumerate()
        .map(|(r, (rank, t))| {
            assert_eq!(
                rank.pc,
                t.ops.len(),
                "tape of rank {r} stalls on a message that is never sent"
            );
            let clock = RankClock {
                clock: rank.clock,
                marks: rank.marks,
            };
            (clock, rank.obs.map_or_else(Vec::new, |o| o.events))
        })
        .unzip()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::ReduceOp;
    use crate::engine::{run_spmd, run_spmd_opts, run_spmd_recorded, EngineOpts};
    use crate::exchange::tests::{copy, ring};
    use crate::fault::SlowWindow;
    use crate::network::NetworkModel;
    use crate::topology::ClusterTopology;
    use crate::work::ComputeModel;
    use crate::{Payload, SimComm};

    fn cfg(size: usize, net: NetworkModel, cores: usize, seed: u64) -> SpmdConfig {
        SpmdConfig {
            size,
            topo: ClusterTopology::uniform(size.div_ceil(cores), cores),
            net,
            compute: ComputeModel::new(1e9, 4e9),
            seed,
        }
    }

    fn platforms(size: usize) -> [SpmdConfig; 4] {
        [
            cfg(size, NetworkModel::gigabit_ethernet(), 4, 1),
            cfg(size, NetworkModel::ten_gig_ethernet_ec2(), 16, 7),
            cfg(size, NetworkModel::infiniband_ddr(), 2, 2012),
            cfg(size, NetworkModel::ten_gig_ethernet_ec2(), 1, 99),
        ]
    }

    /// Blocking traffic, posted exchanges and receives, symmetric and
    /// rooted collectives, uneven compute, an uncharged advance, an
    /// application event and the five phase marks of each step: every
    /// kind of op. Returns the clock bits of the marks.
    fn body(comm: &mut SimComm) -> Vec<u64> {
        let (rank, size) = (comm.rank(), comm.size());
        let right = (rank + 1) % size;
        let left = (rank + size - 1) % size;
        let mut marks = Vec::new();
        for step in 0..3 {
            marks.push(comm.phase_mark(step, None));
            comm.compute(Work::new(1e6 * (rank + step + 1) as f64, 3e5));
            marks.push(comm.phase_mark(step, Some(Phase::Assembly)));
            let plan = ring(rank, size, 100 * (step + 1));
            let mut halo = vec![1.0; 100 * (step + 1) * (1 + plan.neighbors.len())];
            let posted = comm.exchange_post(&plan, &halo, copy);
            comm.compute(Work::new(2e5, 1e5));
            comm.exchange_wait(&plan, posted, &mut halo, copy);
            marks.push(comm.phase_mark(step, Some(Phase::Precond)));
            comm.send(left, 5, Payload::F64(vec![2.0; 10]));
            let _ = comm.recv(right, 5);
            let _ = comm.allreduce_scalar(ReduceOp::Sum, rank as f64);
            let _ = comm.allreduce_vec(ReduceOp::Max, &[1.0, rank as f64]);
            marks.push(comm.phase_mark(step, Some(Phase::Solve)));
            comm.trace_instant(EventKind::Solver {
                step: step as u32,
                iters: rank as u32,
            });
            comm.send(left, 6, Payload::F64(vec![3.0; 50]));
            let posted = comm.irecv(right, 6);
            comm.compute(Work::new(1e5, 0.0));
            let _ = comm.wait_all(vec![posted]);
            comm.advance(1e-4 * (rank + 1) as f64);
            let sum = comm.reduce(0, ReduceOp::Sum, &[1.0]);
            let _ = comm.bcast(0, sum.unwrap_or_default());
            let _ = comm.gather(size - 1, &[rank as f64]);
            let _ = comm.allgather(&[rank as f64]);
            marks.push(comm.phase_mark(step, Some(Phase::Iteration)));
        }
        comm.barrier();
        marks.into_iter().map(f64::to_bits).collect()
    }

    fn recorded(size: usize) -> WorkTape {
        let c = cfg(size, NetworkModel::gigabit_ethernet(), 4, 1);
        let (_, tape) = run_spmd_recorded(c, EngineOpts::cooperative(1), 1 << 20, body);
        tape.expect("a small job fits its budget")
    }

    #[test]
    fn priced_clocks_match_execution_on_every_platform() {
        for size in [1, 2, 5, 8] {
            let tape = recorded(size);
            for c in platforms(size) {
                let executed = run_spmd(c.clone(), body);
                let (priced, _) = evaluate(&tape, &c, None);
                for (e, p) in executed.iter().zip(&priced) {
                    assert_eq!(e.clock.to_bits(), p.clock.to_bits(), "size {size}");
                    let marks: Vec<u64> = p.marks.iter().map(|m| m.to_bits()).collect();
                    assert_eq!(e.value, marks, "size {size}");
                }
            }
        }
    }

    #[test]
    fn one_tape_traces_the_run_on_every_platform_at_every_detail() {
        let tape = recorded(5);
        for c in platforms(5) {
            for spec in [
                TraceSpec::phases(),
                TraceSpec::collectives(),
                TraceSpec::messages(),
            ] {
                let (res, executed) = run_spmd_opts(
                    c.clone(),
                    EngineOpts::default(),
                    FaultPlan::none(),
                    Some(spec),
                    body,
                );
                let (clocks, priced) = evaluate(&tape, &c, Some(spec));
                assert_eq!(executed, priced, "{spec:?}");
                for (e, p) in res.unwrap().iter().zip(&clocks) {
                    assert_eq!(e.clock.to_bits(), p.clock.to_bits());
                }
            }
        }
    }

    #[test]
    fn a_traced_job_prices_its_trace_under_its_own_slow_windows() {
        let c = cfg(4, NetworkModel::ten_gig_ethernet_ec2(), 2, 3);
        let faults = FaultPlan {
            node_down_at: vec![f64::INFINITY; 2],
            slow_windows: vec![SlowWindow {
                start: 0.0,
                end: 1.0,
                factor: 4.0,
            }],
        };
        let traced = |faults: &FaultPlan| {
            let (res, trace) = run_spmd_opts(
                c.clone(),
                EngineOpts::cooperative(1),
                faults.clone(),
                Some(TraceSpec::phases()),
                body,
            );
            (res.unwrap(), trace.unwrap())
        };
        let (res, trace) = traced(&faults);
        // Each step's iteration span ends at the rank's executed finish
        // mark, which the window slowed.
        for e in &trace.events {
            if let EventKind::Phase {
                phase: Phase::Iteration,
                step,
            } = e.kind
            {
                let finish = res[e.rank as usize].value[5 * step as usize + 4];
                assert_eq!((e.at + e.dur).to_bits(), finish);
            }
        }
        assert_ne!(trace, traced(&FaultPlan::none()).1);
    }

    #[test]
    fn recording_changes_nothing_and_is_engine_independent() {
        let c = cfg(6, NetworkModel::ten_gig_ethernet_ec2(), 4, 3);
        let plain = run_spmd(c.clone(), body);
        let mut tapes = Vec::new();
        for opts in [
            EngineOpts::cooperative(1),
            EngineOpts::cooperative(3),
            EngineOpts::default(),
        ] {
            let (res, tape) = run_spmd_recorded(c.clone(), opts, 1 << 20, body);
            for (a, b) in plain.iter().zip(&res) {
                assert_eq!((a.clock.to_bits(), &a.value), (b.clock.to_bits(), &b.value));
            }
            tapes.push(tape.expect("fits"));
        }
        assert!(tapes.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn a_rank_that_outgrows_its_share_leaves_no_tape() {
        let c = cfg(4, NetworkModel::gigabit_ethernet(), 4, 1);
        let biggest = recorded(4)
            .ranks
            .iter()
            .map(|t| (t.ops.len() + t.works.len()) * UNIT_BYTES)
            .max();
        // Every rank's share is one unit short of the largest rank's need.
        let tight = (biggest.unwrap() - UNIT_BYTES) * 4;
        let (res, tape) = run_spmd_recorded(c.clone(), EngineOpts::cooperative(1), tight, body);
        assert!(tape.is_none());
        // Giving up is invisible in the results.
        for (a, b) in run_spmd(c, body).iter().zip(&res) {
            assert_eq!((a.clock.to_bits(), &a.value), (b.clock.to_bits(), &b.value));
        }
    }

    #[test]
    fn an_advance_is_priced_exactly() {
        let c = cfg(2, NetworkModel::gigabit_ethernet(), 4, 1);
        let advanced = |comm: &mut SimComm| {
            comm.compute(Work::new(1e6, 0.0));
            comm.advance(0.1 + 0.2 * comm.rank() as f64);
            comm.barrier();
            comm.advance(1.0 / 3.0);
        };
        let (res, tape) =
            run_spmd_recorded(c.clone(), EngineOpts::cooperative(1), 1 << 20, advanced);
        let (priced, _) = evaluate(&tape.expect("an advance keeps the tape"), &c, None);
        for (e, p) in res.iter().zip(&priced) {
            assert_eq!(e.clock.to_bits(), p.clock.to_bits());
        }
    }

    #[test]
    fn interned_works_are_shared_by_repeated_charges() {
        let c = cfg(1, NetworkModel::ideal(), 1, 0);
        let (_, tape) = run_spmd_recorded(c, EngineOpts::cooperative(1), 1 << 20, |comm| {
            for i in 0..100 {
                comm.compute(Work::new(f64::from(i % 3), 1.0));
            }
        });
        let tape = tape.unwrap();
        let rank = &tape.ranks[0];
        assert_eq!((rank.ops.len(), rank.works.len()), (100, 3));
        assert_eq!(rank.bytes(), 103 * UNIT_BYTES);
    }
}
