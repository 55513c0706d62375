//! Collective operations.
//!
//! The algorithms are the classic binomial-tree / dissemination / ring
//! schemes, so collective cost *emerges* from the network model: on a
//! high-latency fabric an allreduce over `p` ranks costs ~`2 ceil(log2 p)`
//! latencies — exactly the term that hurts the Krylov solve phase on EC2 in
//! the paper.
//!
//! The symmetric collectives — [`SimComm::allreduce`] (and its scalar and
//! fused forms), [`SimComm::barrier`] and [`SimComm::allgather`] — are one
//! rendezvous per call: the ranks park, and one evaluator prices every hop
//! of the tree through the same charges a message pays (see
//! `crate::rendezvous`). The rooted [`SimComm::reduce`], [`SimComm::bcast`]
//! and [`SimComm::gather`] let ranks leave early, so they stay
//! point-to-point messages. Both read the tree partners defined here.
//!
//! Every collective consumes *epochs* of the reserved tag space; all ranks
//! must call collectives in the same order (standard MPI semantics). A
//! symmetric collective that ranks enter in different kinds panics with a
//! message naming both.

use crate::comm::{Payload, SimComm};
use crate::rendezvous::{Kind, Yield};
use crate::tape::{Collective, Op};
use std::sync::Arc;

/// Tags at or above this value are reserved for collectives.
pub const COLLECTIVE_TAG_BASE: u64 = 1 << 40;
const SLOTS_PER_EPOCH: u64 = 8;
pub(crate) const SLOT_REDUCE: u64 = 0;
pub(crate) const SLOT_BCAST: u64 = 1;
pub(crate) const SLOT_BARRIER: u64 = 2;
const SLOT_GATHER: u64 = 3;
pub(crate) const SLOT_ALLGATHER: u64 = 4;

/// The tag of `slot`'s messages in collective epoch `epoch`.
pub(crate) fn collective_tag(epoch: u64, slot: u64) -> u64 {
    COLLECTIVE_TAG_BASE + epoch * SLOTS_PER_EPOCH + slot
}

/// Children of relative rank `rel` in the binomial tree over `size` ranks:
/// child `i` is [`tree_child`]`(rel, i)` for `i < tree_fanout(rel, size)`.
/// A reduce receives from the children in ascending `i` before sending to
/// its parent; a broadcast receives from the parent, then sends to the
/// children in descending `i`.
pub(crate) fn tree_fanout(rel: usize, size: usize) -> u32 {
    // Below the lowest set bit of `rel` (every bit, for the root), while
    // the child exists.
    let limit = if rel == 0 {
        size
    } else {
        rel & rel.wrapping_neg()
    };
    let mut k = 0;
    while (1usize << k) < limit && rel + (1usize << k) < size {
        k += 1;
    }
    k
}

/// Child `i` of relative rank `rel`; see [`tree_fanout`].
pub(crate) fn tree_child(rel: usize, i: usize) -> usize {
    rel + (1 << i)
}

/// The parent of relative rank `rel` (`rel` with its lowest set bit
/// cleared), or `None` for the root.
pub(crate) fn tree_parent(rel: usize) -> Option<usize> {
    (rel != 0).then(|| rel & (rel - 1))
}

/// Rounds of the dissemination barrier over `size` ranks: `ceil(log2
/// size)`.
pub(crate) fn dissemination_rounds(size: usize) -> u32 {
    usize::BITS - (size.max(1) - 1).leading_zeros()
}

/// `(to, from)`: whom `rank` signals and whom it hears from in `round` of
/// the dissemination barrier.
pub(crate) fn dissemination_partners(rank: usize, size: usize, round: usize) -> (usize, usize) {
    let step = 1usize << round;
    ((rank + step) % size, (rank + size - step) % size)
}

/// Element-wise reduction operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

impl ReduceOp {
    #[inline]
    pub(crate) fn apply(self, acc: &mut [f64], other: &[f64]) {
        debug_assert_eq!(acc.len(), other.len());
        match self {
            ReduceOp::Sum => {
                for (a, b) in acc.iter_mut().zip(other) {
                    *a += b;
                }
            }
            ReduceOp::Max => {
                for (a, b) in acc.iter_mut().zip(other) {
                    *a = a.max(*b);
                }
            }
            ReduceOp::Min => {
                for (a, b) in acc.iter_mut().zip(other) {
                    *a = a.min(*b);
                }
            }
        }
    }
}

impl SimComm {
    /// Synchronizes all ranks (dissemination barrier, `ceil(log2 p)`
    /// rounds). On return every rank's clock is at least the maximum clock
    /// any rank had on entry.
    pub fn barrier(&mut self) {
        self.join_collective(Kind::Barrier, Payload::Empty);
    }

    /// Reduces `data` element-wise onto the root (binomial tree). Returns
    /// `Some(result)` on the root, `None` elsewhere.
    pub fn reduce(&mut self, root: usize, op: ReduceOp, data: &[f64]) -> Option<Vec<f64>> {
        self.ledger.record(Op::Open);
        let out = self.reduce_inner(root, op, data);
        self.ledger.record(Op::Close(Collective::Reduce));
        out
    }

    fn reduce_inner(&mut self, root: usize, op: ReduceOp, data: &[f64]) -> Option<Vec<f64>> {
        let size = self.size();
        assert!(root < size);
        let tag = collective_tag(self.next_collective_epoch(), SLOT_REDUCE);
        let rel = (self.rank() + size - root) % size;
        let mut acc = data.to_vec();
        for i in 0..tree_fanout(rel, size) as usize {
            let child = (tree_child(rel, i) + root) % size;
            let other = self.recv_f64(child, tag);
            op.apply(&mut acc, &other);
            // Combining costs real flops.
            self.compute(crate::work::Work::new(
                acc.len() as f64,
                16.0 * acc.len() as f64,
            ));
        }
        match tree_parent(rel) {
            Some(parent) => {
                self.send((parent + root) % size, tag, Payload::F64(acc));
                None
            }
            None => Some(acc),
        }
    }

    /// Broadcasts `data` from the root (binomial tree). Every rank returns
    /// the root's vector; non-root inputs are ignored.
    pub fn bcast(&mut self, root: usize, data: Vec<f64>) -> Vec<f64> {
        self.ledger.record(Op::Open);
        let out = self.bcast_inner(root, data);
        self.ledger.record(Op::Close(Collective::Bcast));
        out
    }

    fn bcast_inner(&mut self, root: usize, data: Vec<f64>) -> Vec<f64> {
        let size = self.size();
        assert!(root < size);
        let tag = collective_tag(self.next_collective_epoch(), SLOT_BCAST);
        let rel = (self.rank() + size - root) % size;
        let buf = match tree_parent(rel) {
            Some(parent) => self.recv_f64((parent + root) % size, tag),
            None => data,
        };
        for i in (0..tree_fanout(rel, size) as usize).rev() {
            let child = (tree_child(rel, i) + root) % size;
            self.send(child, tag, Payload::F64(buf.clone()));
        }
        buf
    }

    /// All-reduce: every rank returns the element-wise reduction over all
    /// ranks' `data` (reduce-to-0 + broadcast, traced as a `reduce` and a
    /// `bcast` span). Every rank must pass the same number of values.
    pub fn allreduce(&mut self, op: ReduceOp, data: &[f64]) -> Vec<f64> {
        let kind = Kind::Allreduce {
            op,
            len: data.len(),
            fused: false,
        };
        match self.join_collective(kind, Payload::F64(data.to_vec())) {
            Yield::Values(v) => v,
            _ => unreachable!("an allreduce yields values"),
        }
    }

    /// Scalar all-reduce, the hot operation of Krylov dot products.
    pub fn allreduce_scalar(&mut self, op: ReduceOp, x: f64) -> f64 {
        self.allreduce(op, &[x])[0]
    }

    /// Fused all-reduce: `k` scalars batched through ONE reduce+broadcast
    /// tree, so the k reductions of a Krylov iteration cost one collective's
    /// latency instead of k. The binomial tree combines element-wise in the
    /// same rank order as `k` separate calls, so each element of the result
    /// is bitwise-identical to the scalar all-reduce of that element.
    ///
    /// Traced as a single `"allreduce_fused"` collective span (the separate
    /// reduce/bcast spans of [`Self::allreduce`] are not emitted), so the
    /// rollup can tell fused from scalar reductions.
    pub fn allreduce_vec(&mut self, op: ReduceOp, data: &[f64]) -> Vec<f64> {
        let kind = Kind::Allreduce {
            op,
            len: data.len(),
            fused: true,
        };
        match self.join_collective(kind, Payload::F64(data.to_vec())) {
            Yield::Values(v) => v,
            _ => unreachable!("an allreduce yields values"),
        }
    }

    /// Gathers every rank's vector on the root (direct sends). Returns
    /// `Some(per-rank vectors)` on the root, `None` elsewhere.
    pub fn gather(&mut self, root: usize, data: &[f64]) -> Option<Vec<Vec<f64>>> {
        self.ledger.record(Op::Open);
        let out = self.gather_inner(root, data);
        self.ledger.record(Op::Close(Collective::Gather));
        out
    }

    fn gather_inner(&mut self, root: usize, data: &[f64]) -> Option<Vec<Vec<f64>>> {
        let size = self.size();
        assert!(root < size);
        let tag = collective_tag(self.next_collective_epoch(), SLOT_GATHER);
        if self.rank() == root {
            let mut out = vec![Vec::new(); size];
            out[root] = data.to_vec();
            #[allow(clippy::needless_range_loop)] // src is also the peer rank
            for src in 0..size {
                if src != root {
                    out[src] = self.recv_f64(src, tag);
                }
            }
            Some(out)
        } else {
            self.send(root, tag, Payload::F64(data.to_vec()));
            None
        }
    }

    /// All-gather (ring algorithm): every rank's vector, indexed by rank.
    /// The table is one allocation shared by every rank of the job.
    pub fn allgather(&mut self, data: &[f64]) -> Arc<[Vec<f64>]> {
        let kind = Kind::Allgather { usize: false };
        match self.join_collective(kind, Payload::F64(data.to_vec())) {
            Yield::F64s(table) => table,
            _ => unreachable!("an allgather yields a table"),
        }
    }

    /// All-gather of index vectors (used for DoF-map setup), carried as
    /// indices: every value comes back exactly. Priced like
    /// [`Self::allgather`] of as many `f64`s.
    pub fn allgather_usize(&mut self, data: &[usize]) -> Arc<[Vec<usize>]> {
        let kind = Kind::Allgather { usize: true };
        match self.join_collective(kind, Payload::Usize(data.to_vec())) {
            Yield::Usizes(table) => table,
            _ => unreachable!("an allgather_usize yields a table"),
        }
    }
}

/// The symmetric collectives as point-to-point messages: what the library
/// ran before the rendezvous, kept as the oracle it is tested against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// `SimComm::allreduce` as a reduce to rank 0 and a broadcast.
    pub(crate) fn allreduce(comm: &mut SimComm, op: ReduceOp, data: &[f64]) -> Vec<f64> {
        let reduced = comm.reduce(0, op, data);
        comm.bcast(0, reduced.unwrap_or_default())
    }

    /// `SimComm::allreduce_vec`: the same tree, traced as one span.
    pub(crate) fn allreduce_vec(comm: &mut SimComm, op: ReduceOp, data: &[f64]) -> Vec<f64> {
        comm.ledger.record(Op::Open);
        let reduced = comm.reduce_inner(0, op, data);
        let out = comm.bcast_inner(0, reduced.unwrap_or_default());
        comm.ledger.record(Op::Close(Collective::AllreduceFused));
        out
    }

    /// `SimComm::barrier`: the dissemination rounds.
    pub(crate) fn barrier(comm: &mut SimComm) {
        comm.ledger.record(Op::Open);
        // A dead node must be observed even by a size-1 job.
        comm.maybe_fail();
        let size = comm.size();
        if size > 1 {
            let tag = collective_tag(comm.next_collective_epoch(), SLOT_BARRIER);
            for round in 0..dissemination_rounds(size) as usize {
                let (to, from) = dissemination_partners(comm.rank(), size, round);
                comm.send(to, tag, Payload::Empty);
                let _ = comm.recv(from, tag);
            }
        }
        comm.ledger.record(Op::Close(Collective::Barrier));
    }

    /// `SimComm::allgather` / `allgather_usize` as a ring, one payload per
    /// hop, every rank keeping its own copy of the table.
    pub(crate) fn allgather(comm: &mut SimComm, data: Payload) -> Vec<Payload> {
        comm.ledger.record(Op::Open);
        let (size, rank) = (comm.size(), comm.rank());
        let tag = collective_tag(comm.next_collective_epoch(), SLOT_ALLGATHER);
        let mut out = vec![Payload::Empty; size];
        out[rank] = data.clone();
        let (right, left) = ((rank + 1) % size, (rank + size - 1) % size);
        let mut carry = data;
        for s in 0..size - 1 {
            comm.send(right, tag, carry);
            carry = comm.recv(left, tag);
            out[(rank + size - s - 1) % size] = carry.clone();
        }
        comm.ledger.record(Op::Close(Collective::Allgather));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_spmd, run_spmd_opts, EngineOpts, SpmdConfig};
    use crate::fault::FaultPlan;
    use crate::network::NetworkModel;
    use crate::topology::ClusterTopology;
    use crate::work::{ComputeModel, Work};

    fn cfg(size: usize) -> SpmdConfig {
        SpmdConfig {
            size,
            topo: ClusterTopology::uniform(size.div_ceil(4).max(1), 4),
            net: NetworkModel::gigabit_ethernet(),
            compute: ComputeModel::new(1e9, 4e9),
            seed: 7,
        }
    }

    #[test]
    fn allreduce_sum_matches_serial() {
        for p in [1usize, 2, 3, 5, 8, 13, 16] {
            let r = run_spmd(cfg(p), |comm| {
                let mine = vec![comm.rank() as f64, 1.0];
                comm.allreduce(ReduceOp::Sum, &mine)
            });
            let expected = vec![(p * (p - 1) / 2) as f64, p as f64];
            for res in &r {
                assert_eq!(res.value, expected, "p = {p}");
            }
        }
    }

    #[test]
    fn allreduce_max_min() {
        let r = run_spmd(cfg(7), |comm| {
            let x = comm.rank() as f64;
            (
                comm.allreduce_scalar(ReduceOp::Max, x),
                comm.allreduce_scalar(ReduceOp::Min, x),
            )
        });
        for res in &r {
            assert_eq!(res.value, (6.0, 0.0));
        }
    }

    #[test]
    fn reduce_only_root_gets_result() {
        let r = run_spmd(cfg(6), |comm| comm.reduce(2, ReduceOp::Sum, &[1.0]));
        for res in &r {
            if res.rank == 2 {
                assert_eq!(res.value, Some(vec![6.0]));
            } else {
                assert_eq!(res.value, None);
            }
        }
    }

    #[test]
    fn bcast_from_each_root() {
        for root in 0..5 {
            let r = run_spmd(cfg(5), move |comm| {
                let data = if comm.rank() == root {
                    vec![42.0, root as f64]
                } else {
                    vec![]
                };
                comm.bcast(root, data)
            });
            for res in &r {
                assert_eq!(res.value, vec![42.0, root as f64], "root = {root}");
            }
        }
    }

    #[test]
    fn barrier_aligns_clocks() {
        let r = run_spmd(cfg(4), |comm| {
            // Rank 3 does heavy compute before the barrier.
            if comm.rank() == 3 {
                comm.compute(crate::work::Work::new(5e9, 0.0));
            }
            comm.barrier();
            comm.clock()
        });
        // Everyone's post-barrier clock is at least rank 3's compute time.
        for res in &r {
            assert!(res.value >= 5.0, "rank {} clock {}", res.rank, res.value);
        }
    }

    #[test]
    fn gather_collects_per_rank_data() {
        let r = run_spmd(cfg(5), |comm| comm.gather(0, &[comm.rank() as f64 * 2.0]));
        let root = r[0].value.as_ref().unwrap();
        for (i, v) in root.iter().enumerate() {
            assert_eq!(v, &vec![i as f64 * 2.0]);
        }
        assert!(r[1].value.is_none());
    }

    #[test]
    fn allgather_returns_everyones_data() {
        for p in [1usize, 2, 4, 7] {
            let r = run_spmd(cfg(p), |comm| comm.allgather(&[comm.rank() as f64]));
            for res in &r {
                assert_eq!(res.value.len(), p);
                for (i, v) in res.value.iter().enumerate() {
                    assert_eq!(v, &vec![i as f64], "p = {p}, rank {}", res.rank);
                }
            }
        }
    }

    #[test]
    fn allgather_usize_roundtrip() {
        let r = run_spmd(cfg(3), |comm| comm.allgather_usize(&[comm.rank() + 100]));
        for res in &r {
            assert_eq!(*res.value, [vec![100], vec![101], vec![102]]);
        }
    }

    #[test]
    fn allgather_usize_carries_values_past_2_pow_53_exactly() {
        let r = run_spmd(cfg(3), |comm| {
            comm.allgather_usize(&[usize::MAX - comm.rank(), (1 << 53) + 1])
        });
        for res in &r {
            for (rank, block) in res.value.iter().enumerate() {
                assert_eq!(block, &[usize::MAX - rank, (1 << 53) + 1]);
            }
        }
    }

    #[test]
    fn allgather_table_is_shared_by_the_job() {
        let r = run_spmd(cfg(5), |comm| comm.allgather(&[comm.rank() as f64]));
        assert!(r.windows(2).all(|w| Arc::ptr_eq(&w[0].value, &w[1].value)));
    }

    #[test]
    fn consecutive_collectives_do_not_interfere() {
        let r = run_spmd(cfg(4), |comm| {
            let a = comm.allreduce_scalar(ReduceOp::Sum, 1.0);
            comm.barrier();
            let b = comm.allreduce_scalar(ReduceOp::Sum, 2.0);
            let c = comm.allgather(&[comm.rank() as f64]);
            (a, b, c.len())
        });
        for res in &r {
            assert_eq!(res.value, (4.0, 8.0, 4));
        }
    }

    #[test]
    fn allreduce_cost_grows_with_ranks() {
        let time_for = |p: usize| {
            let mut c = cfg(p);
            c.topo = ClusterTopology::uniform(p, 1);
            c.net.jitter_sigma = 0.0;
            let r = run_spmd(c, |comm| {
                let _ = comm.allreduce_scalar(ReduceOp::Sum, 1.0);
                comm.clock()
            });
            r.iter().map(|x| x.value).fold(0.0f64, f64::max)
        };
        let t2 = time_for(2);
        let t16 = time_for(16);
        assert!(t16 > 2.0 * t2, "t2 = {t2}, t16 = {t16}");
    }

    #[test]
    fn collective_with_dead_node_errors_instead_of_deadlocking() {
        // cfg(8) = 2 nodes x 4 cores; node 1 (ranks 4..8) dies mid-loop.
        // Survivors blocked inside the allreduce tree must unwind via the
        // poison path, and the job reports the node loss.
        let plan = FaultPlan {
            node_down_at: vec![f64::INFINITY, 2.5],
            slow_windows: vec![],
        };
        let (out, _) = run_spmd_opts(cfg(8), EngineOpts::default(), plan, None, |comm| {
            for _ in 0..10 {
                comm.compute(Work::new(1e9, 0.0)); // 1 virtual second each
                let _ = comm.allreduce_scalar(ReduceOp::Sum, 1.0);
            }
        });
        let rf = out.unwrap_err();
        assert_eq!(rf.node, 1);
        assert_eq!(rf.at, 2.5);
    }

    // ---- the rendezvous against the point-to-point oracle ----

    use crate::comm::SimComm;
    use crate::engine::run_spmd_inner;
    use crate::exchange::tests::{copy, ring};
    use crate::tape::WorkTape;
    use crate::COOPERATIVE_SUPPORTED;
    use hetero_trace::{Trace, TraceDetail};
    use proptest::prelude::*;

    /// One step every rank of a generated program takes.
    #[derive(Debug, Clone, Copy)]
    enum Act {
        Allreduce {
            op: usize,
            len: usize,
        },
        AllreduceVec {
            len: usize,
        },
        Barrier,
        Allgather {
            len: usize,
        },
        AllgatherUsize {
            len: usize,
        },
        /// Blocking sends to both ring neighbours, then receives.
        Halo {
            len: usize,
        },
        /// A posted exchange with both ring neighbours, compute under the
        /// transfers, and the wait.
        Posted {
            len: usize,
            flops: u32,
        },
        Compute {
            flops: u32,
        },
    }

    fn act() -> impl Strategy<Value = Act> {
        prop_oneof![
            (0usize..3, 0usize..4).prop_map(|(op, len)| Act::Allreduce { op, len }),
            (0usize..4).prop_map(|len| Act::AllreduceVec { len }),
            Just(Act::Barrier),
            (0usize..3).prop_map(|len| Act::Allgather { len }),
            (0usize..3).prop_map(|len| Act::AllgatherUsize { len }),
            (1usize..40).prop_map(|len| Act::Halo { len }),
            (1usize..40, 1u32..5_000_000).prop_map(|(len, flops)| Act::Posted { len, flops }),
            (1u32..20_000_000).prop_map(|flops| Act::Compute { flops }),
        ]
    }

    /// Runs `acts` on this rank through the library's collectives, or
    /// (`oracle`) through their point-to-point forms, and fingerprints
    /// every value received and the clock after every step.
    fn play(acts: &[Act], oracle: bool, comm: &mut SimComm) -> Vec<u64> {
        let (rank, size) = (comm.rank(), comm.size());
        let (right, left) = ((rank + 1) % size, (rank + size - 1) % size);
        let mut fp = Vec::new();
        for (i, act) in acts.iter().enumerate() {
            let tag = 2 * i as u64;
            let mine = |len: usize, clock: f64| -> Vec<f64> {
                (0..len)
                    .map(|j| (rank * 7 + j) as f64 * 0.1 + clock)
                    .collect()
            };
            let got: Vec<u64> = match *act {
                Act::Allreduce { op, len } => {
                    let op = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min][op];
                    let data = mine(len, comm.clock());
                    let v = if oracle {
                        oracle::allreduce(comm, op, &data)
                    } else {
                        comm.allreduce(op, &data)
                    };
                    v.iter().map(|x| x.to_bits()).collect()
                }
                Act::AllreduceVec { len } => {
                    let data = mine(len, comm.clock());
                    let v = if oracle {
                        oracle::allreduce_vec(comm, ReduceOp::Sum, &data)
                    } else {
                        comm.allreduce_vec(ReduceOp::Sum, &data)
                    };
                    v.iter().map(|x| x.to_bits()).collect()
                }
                Act::Barrier => {
                    if oracle {
                        oracle::barrier(comm);
                    } else {
                        comm.barrier();
                    }
                    Vec::new()
                }
                Act::Allgather { len } => {
                    let data = mine(len + rank % 3, comm.clock());
                    let table: Vec<Vec<f64>> = if oracle {
                        oracle::allgather(comm, Payload::F64(data))
                            .into_iter()
                            .map(|p| match p {
                                Payload::F64(v) => v,
                                other => panic!("{other:?}"),
                            })
                            .collect()
                    } else {
                        comm.allgather(&data).to_vec()
                    };
                    table.iter().flatten().map(|x| x.to_bits()).collect()
                }
                Act::AllgatherUsize { len } => {
                    let data = vec![usize::MAX - rank; len + rank % 2];
                    let table: Vec<Vec<usize>> = if oracle {
                        oracle::allgather(comm, Payload::Usize(data))
                            .into_iter()
                            .map(|p| match p {
                                Payload::Usize(v) => v,
                                other => panic!("{other:?}"),
                            })
                            .collect()
                    } else {
                        comm.allgather_usize(&data).to_vec()
                    };
                    table.iter().flatten().map(|&x| x as u64).collect()
                }
                Act::Halo { len } => {
                    comm.send(right, tag, Payload::F64(mine(len, comm.clock())));
                    comm.send(left, tag + 1, Payload::F64(mine(len + 1, 0.0)));
                    let mut v = comm.recv_f64(left, tag);
                    v.extend(comm.recv_f64(right, tag + 1));
                    v.iter().map(|x| x.to_bits()).collect()
                }
                Act::Posted { len, flops } => {
                    let plan = ring(rank, size, len);
                    let mut v = mine(len, comm.clock());
                    v.resize(len * (1 + plan.neighbors.len()), 0.0);
                    let posted = comm.exchange_post(&plan, &v, copy);
                    comm.compute(Work::new(f64::from(flops), 1e3));
                    comm.exchange_wait(&plan, posted, &mut v, copy);
                    v[len..].iter().map(|x| x.to_bits()).collect()
                }
                Act::Compute { flops } => {
                    comm.compute(Work::new(f64::from(flops), 1e5));
                    Vec::new()
                }
            };
            fp.extend(got);
            fp.push(comm.clock().to_bits());
        }
        fp
    }

    /// One rank's fingerprint, clock bits and counters.
    type RankView = (Vec<u64>, u64, String);

    /// Everything a run shows: every rank's view (or the failure), the
    /// message-level trace, and the work tape.
    #[derive(Debug, PartialEq)]
    struct Observed {
        ranks: Result<Vec<RankView>, (usize, u64)>,
        jsonl: String,
        tape: Option<WorkTape>,
    }

    fn observe(
        c: &SpmdConfig,
        opts: EngineOpts,
        faults: &FaultPlan,
        acts: &[Act],
        oracle: bool,
    ) -> Observed {
        let acts = acts.to_vec();
        let (res, trace, tape) = run_spmd_inner(
            c.clone(),
            opts,
            faults.clone(),
            Some(TraceDetail::Messages),
            Some(1 << 22),
            move |comm| play(&acts, oracle, comm),
        );
        Observed {
            ranks: res
                .map(|rs| {
                    rs.into_iter()
                        .map(|r| (r.value, r.clock.to_bits(), format!("{:?}", r.stats)))
                        .collect()
                })
                .map_err(|f| (f.node, f.at.to_bits())),
            jsonl: trace.expect("traced").jsonl(),
            tape,
        }
    }

    fn engines() -> Vec<EngineOpts> {
        let mut all = vec![EngineOpts::threads()];
        if COOPERATIVE_SUPPORTED {
            all.extend([EngineOpts::cooperative(1), EngineOpts::cooperative(3)]);
        }
        all
    }

    fn program_cfg(size: usize, ec2: bool, seed: u64) -> SpmdConfig {
        SpmdConfig {
            size,
            topo: ClusterTopology::uniform(size.div_ceil(4), 4),
            net: if ec2 {
                NetworkModel::ten_gig_ethernet_ec2()
            } else {
                NetworkModel::gigabit_ethernet()
            },
            compute: ComputeModel::new(1e9, 4e9),
            seed,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random programs mixing the four symmetric collectives with halo
        /// traffic, posted receives and compute give every rank the same
        /// values, clock, counters, tape and trace as the point-to-point
        /// oracle, on both engines and both pool sizes — also when a node
        /// dies, at a virtual time drawn inside a random event of the
        /// fault-free run (a message, a collective span), so deaths land
        /// mid-collective.
        #[test]
        fn rendezvous_matches_the_point_to_point_oracle(
            size in 1usize..=70,
            ec2 in any::<bool>(),
            seed in 0u64..1000,
            acts in prop::collection::vec(act(), 1..7),
            kill in any::<bool>(),
            pick in 0.0f64..1.0,
            frac in 0.0f64..1.0,
        ) {
            let c = program_cfg(size, ec2, seed);
            let mut faults = FaultPlan::none();
            if kill {
                let (_, clean) = traced(&c, EngineOpts::threads(), &faults, |comm| play(&acts, true, comm));
                if let Some(e) = clean.events.get((pick * clean.len() as f64) as usize) {
                    let mut node_down_at = vec![f64::INFINITY; size.div_ceil(4)];
                    node_down_at[c.topo.node_of_rank(e.rank as usize)] = e.at + e.dur * frac;
                    faults.node_down_at = node_down_at;
                }
            }
            for opts in engines() {
                let want = observe(&c, opts, &faults, &acts, true);
                let got = observe(&c, opts, &faults, &acts, false);
                if let Some(d) = hetero_trace::first_divergence(&want.jsonl, &got.jsonl) {
                    prop_assert!(false, "{opts:?} on {acts:?}: oracle (a) vs rendezvous (b) {d}");
                }
                prop_assert_eq!(&got, &want, "{:?} on {:?}", opts, acts);
            }
        }
    }

    /// The message-level trace of `body` under `opts` and `faults`.
    fn traced<T: Send>(
        c: &SpmdConfig,
        opts: EngineOpts,
        faults: &FaultPlan,
        body: impl Fn(&mut SimComm) -> T + Send + Sync,
    ) -> (Result<Vec<crate::RankResult<T>>, crate::RankFailed>, Trace) {
        let (res, trace, _) = run_spmd_inner(
            c.clone(),
            opts,
            faults.clone(),
            Some(TraceDetail::Messages),
            None,
            body,
        );
        (res, trace.expect("traced"))
    }

    #[test]
    fn a_leaf_dying_at_its_bcast_receive_leaves_rank_0_with_its_result() {
        use hetero_trace::EventKind;
        use std::sync::Mutex;
        // Two ranks on two nodes. Rank 1 is a leaf: it sends its share to
        // rank 0, then waits for the broadcast. Its node dies between the
        // two, so it observes the loss after that receive, while rank 0,
        // which already sent the broadcast, goes on to a side effect.
        let mut c = cfg(2);
        c.topo = ClusterTopology::uniform(2, 1);
        let (_, clean) = traced(&c, EngineOpts::threads(), &FaultPlan::none(), |comm| {
            comm.allreduce_scalar(ReduceOp::Sum, 1.0)
        });
        let leaf: Vec<_> = clean.events.iter().filter(|e| e.rank == 1).collect();
        let sent = leaf
            .iter()
            .find(|e| matches!(e.kind, EventKind::SendMsg { .. }))
            .unwrap();
        let got = leaf
            .iter()
            .find(|e| matches!(e.kind, EventKind::RecvMsg { .. }))
            .unwrap();
        let faults = FaultPlan {
            node_down_at: vec![f64::INFINITY, 0.5 * (sent.at + got.at + got.dur)],
            slow_windows: vec![],
        };
        for opts in engines() {
            let run = |oracle: bool| {
                let effects = Mutex::new(Vec::new());
                let (res, trace) = traced(&c, opts, &faults, |comm| {
                    let v = if oracle {
                        oracle::allreduce(comm, ReduceOp::Sum, &[1.0])[0]
                    } else {
                        comm.allreduce_scalar(ReduceOp::Sum, 1.0)
                    };
                    comm.compute(Work::new(1e6, 0.0));
                    effects
                        .lock()
                        .unwrap()
                        .push((comm.rank(), v, comm.clock().to_bits()));
                });
                let failed = res.unwrap_err();
                (
                    failed.node,
                    failed.at.to_bits(),
                    effects.into_inner().unwrap(),
                    trace.jsonl(),
                )
            };
            let got = run(false);
            assert_eq!(got.0, 1);
            assert_eq!(
                got.2.len(),
                1,
                "{opts:?}: only rank 0 gets past the allreduce"
            );
            assert_eq!((got.2[0].0, got.2[0].1), (0, 2.0));
            assert_eq!(got, run(true), "{opts:?}");
        }
    }

    /// Runs `body` on a fresh thread and returns its panic message; fails
    /// if the job neither completes nor panics within two minutes.
    fn panic_text(body: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body))
                .expect_err("the job must fail");
            let _ = tx.send(crate::engine::panic_message(err.as_ref()));
        });
        rx.recv_timeout(std::time::Duration::from_secs(120))
            .expect("the job must fail, not hang")
    }

    #[test]
    fn a_rank_that_never_joins_poisons_the_job_as_before() {
        for opts in engines() {
            let text = |oracle: bool| {
                panic_text(move || {
                    let (res, _) =
                        crate::run_spmd_opts(cfg(4), opts, FaultPlan::none(), None, move |comm| {
                            if comm.rank() == 3 {
                                return 0.0;
                            }
                            if oracle {
                                oracle::allreduce(comm, ReduceOp::Sum, &[1.0])[0]
                            } else {
                                comm.allreduce_scalar(ReduceOp::Sum, 1.0)
                            }
                        });
                    let _ = res;
                })
            };
            let got = text(false);
            assert!(
                got.contains("job poisoned but no rank reported a root cause"),
                "{got}"
            );
            assert_eq!(got, text(true), "{opts:?}");
        }
    }

    #[test]
    fn ranks_entering_different_collectives_panic_naming_both() {
        for opts in engines() {
            let text = panic_text(move || {
                let (res, _) =
                    crate::run_spmd_opts(cfg(3), opts, FaultPlan::none(), None, |comm| {
                        if comm.rank() == 0 {
                            comm.barrier();
                        } else {
                            let _ = comm.allreduce_scalar(ReduceOp::Sum, 1.0);
                        }
                    });
                let _ = res;
            });
            assert_eq!(
                text,
                "rank 0 panicked: collective mismatch: rank 0 entered barrier at epoch 0 \
                 but rank 1 entered allreduce(Sum, 1 values) at epoch 0",
                "{opts:?}"
            );
        }
    }
}
