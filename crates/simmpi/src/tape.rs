//! Work tapes: one executed run's charges, priced again on any platform.
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
//! in order — do not depend on the platform or the seed. A failure-free,
//! untraced job can record them as one tape per rank
//! ([`crate::engine::run_spmd_recorded`]), and [`evaluate`] prices the
//! recorded [`WorkTape`] on any [`SpmdConfig`] without running the program:
//! no coroutines, payloads or mailboxes, a worklist over ranks that is
//! linear in the number of ops. Every clock update goes through the same
//! pure charge functions as [`SimComm`](crate::SimComm)'s (`JobModel` and
//! `Transfer` in `comm`), so each priced clock is the executed clock
//! bitwise, by construction rather than by approximation.
//!
//! A tape is bounded: the job's byte budget is split evenly across ranks,
//! and a rank that outgrows its share stops recording, drops what it holds
//! and tells the job, which then keeps no tape at all.

use crate::comm::{JobModel, PeerMap};
use crate::engine::SpmdConfig;
use crate::fault::FaultPlan;
use crate::work::Work;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One recorded charge. Sixteen bytes, so a share of `b` bytes holds
/// `b / 16` ops and interned works together.
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
    /// `src`.
    Wait { src: u32, seq: u32, post: u32 },
    /// A phase boundary: the application read the clock.
    Mark,
}

/// Size of one tape unit: an [`Op`], or an interned [`Work`].
const UNIT_BYTES: usize = std::mem::size_of::<Op>();
const _: () = assert!(UNIT_BYTES == 16 && std::mem::size_of::<Work>() == UNIT_BYTES);

/// One rank's recorded charges, in program order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RankTape {
    ops: Vec<Op>,
    /// The distinct works the rank charged, indexed by [`Op::Compute`].
    works: Vec<Work>,
}

impl RankTape {
    fn bytes(&self) -> usize {
        (self.ops.len() + self.works.len()) * UNIT_BYTES
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

    /// Posts recorded so far: the index the next [`Op::Post`] gets.
    pub(crate) fn posts(&self) -> u32 {
        self.posts
    }

    /// Gives up recording for this rank, and so for the job.
    pub(crate) fn abandon(self) {
        self.abandoned.store(true, Ordering::Relaxed);
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
        RankTape {
            ops: r.ops,
            works: r.works,
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
    /// tape in all.
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
/// with no faults and no trace would give.
///
/// A worklist over ranks: each runs its ops until a receive whose message
/// has not departed yet, and is resumed when the sender gets there. Linear
/// in the number of ops.
///
/// # Panics
/// Panics if `config.size` differs from the tape's rank count, or if the
/// tape cannot complete (which a tape recorded from a completed job never
/// does).
pub fn evaluate(tape: &WorkTape, config: &SpmdConfig) -> Vec<RankClock> {
    let size = tape.ranks.len();
    assert_eq!(config.size, size, "tape recorded for {size} ranks");
    let model = JobModel::new(config.clone(), FaultPlan::none());

    struct Rank {
        pc: usize,
        clock: f64,
        /// Clock advance of each interned work.
        costs: Vec<f64>,
        posts: Vec<f64>,
        marks: Vec<f64>,
    }
    let mut ranks: Vec<Rank> = tape
        .ranks
        .iter()
        .map(|t| Rank {
            pc: 0,
            clock: 0.0,
            costs: t.works.iter().map(|&w| model.compute_cost(w)).collect(),
            posts: Vec::new(),
            marks: Vec::new(),
        })
        .collect();
    // `sent[src]` maps each destination to the `(departure, bytes)` of
    // every message `src` has sent it so far, indexed by sequence number.
    let mut sent: Vec<PeerMap<Vec<(f64, f64)>>> = (0..size).map(|_| PeerMap::default()).collect();
    // The source each blocked rank waits on.
    let mut waiting_on: Vec<Option<usize>> = vec![None; size];
    let mut runnable: Vec<usize> = (0..size).rev().collect();

    while let Some(r) = runnable.pop() {
        let ops = &tape.ranks[r].ops;
        let me = &mut ranks[r];
        while let Some(&op) = ops.get(me.pc) {
            match op {
                Op::Compute(i) => me.clock += me.costs[i as usize],
                Op::Send { dst, bytes } => {
                    let dst = dst as usize;
                    me.clock += model.send_cost(bytes);
                    sent[r].get_or_default(dst).push((me.clock, bytes));
                    if waiting_on[dst] == Some(r) {
                        waiting_on[dst] = None;
                        runnable.push(dst);
                    }
                }
                Op::Recv { src, seq } | Op::Wait { src, seq, .. } => {
                    let src = src as usize;
                    let Some(&(depart, bytes)) = sent[src].get(r).and_then(|m| m.get(seq as usize))
                    else {
                        waiting_on[r] = Some(src);
                        break;
                    };
                    let t = model.transfer(src, r, u64::from(seq), bytes, depart);
                    me.clock = match op {
                        Op::Wait { post, .. } => {
                            t.wait(me.clock, me.posts[post as usize], depart).0
                        }
                        _ => t.recv(me.clock, depart),
                    };
                }
                Op::Post => me.posts.push(me.clock),
                Op::Mark => me.marks.push(me.clock),
            }
            me.pc += 1;
        }
    }

    ranks
        .into_iter()
        .zip(&tape.ranks)
        .enumerate()
        .map(|(r, (rank, t))| {
            assert_eq!(
                rank.pc,
                t.ops.len(),
                "tape of rank {r} stalls on a message that is never sent"
            );
            RankClock {
                clock: rank.clock,
                marks: rank.marks,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::ReduceOp;
    use crate::engine::{run_spmd, run_spmd_recorded, EngineOpts};
    use crate::exchange::tests::{copy, ring};
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

    /// Blocking traffic, a posted exchange, collectives, uneven compute and
    /// phase marks: every kind of op.
    fn body(comm: &mut SimComm) -> Vec<u64> {
        let (rank, size) = (comm.rank(), comm.size());
        let right = (rank + 1) % size;
        let left = (rank + size - 1) % size;
        let mut marks = vec![comm.phase_mark().to_bits()];
        for step in 0..3 {
            comm.compute(Work::new(1e6 * (rank + step + 1) as f64, 3e5));
            let plan = ring(rank, size, 100 * (step + 1));
            let mut halo = vec![1.0; 100 * (step + 1) * (1 + plan.neighbors.len())];
            let posted = comm.exchange_post(&plan, &halo, copy);
            comm.compute(Work::new(2e5, 1e5));
            comm.exchange_wait(&plan, posted, &mut halo, copy);
            comm.send(left, 5, Payload::F64(vec![2.0; 10]));
            let _ = comm.recv(right, 5);
            let _ = comm.allreduce_scalar(ReduceOp::Sum, rank as f64);
            marks.push(comm.phase_mark().to_bits());
        }
        comm.barrier();
        marks
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
            for (net, cores, seed) in [
                (NetworkModel::gigabit_ethernet(), 4, 1),
                (NetworkModel::ten_gig_ethernet_ec2(), 16, 7),
                (NetworkModel::infiniband_ddr(), 2, 2012),
                (NetworkModel::ten_gig_ethernet_ec2(), 1, 99),
            ] {
                let c = cfg(size, net, cores, seed);
                let executed = run_spmd(c.clone(), body);
                let priced = evaluate(&tape, &c);
                for (e, p) in executed.iter().zip(&priced) {
                    assert_eq!(e.clock.to_bits(), p.clock.to_bits(), "size {size}");
                    let marks: Vec<u64> = p.marks.iter().map(|m| m.to_bits()).collect();
                    assert_eq!(e.value, marks, "size {size}");
                }
            }
        }
    }

    #[test]
    fn recording_changes_nothing_and_is_engine_independent() {
        let c = cfg(6, NetworkModel::ten_gig_ethernet_ec2(), 4, 3);
        let plain = run_spmd(c.clone(), body);
        let mut tapes = Vec::new();
        for opts in [
            EngineOpts::threads(),
            EngineOpts::cooperative(1),
            EngineOpts::cooperative(3),
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
        let biggest = recorded(4).ranks.iter().map(RankTape::bytes).max();
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
    fn an_uncharged_clock_advance_gives_up_the_tape() {
        let c = cfg(2, NetworkModel::gigabit_ethernet(), 4, 1);
        let (_, tape) = run_spmd_recorded(c, EngineOpts::cooperative(1), 1 << 20, |comm| {
            comm.advance(0.5);
        });
        assert!(tape.is_none());
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
