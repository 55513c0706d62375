//! Row-distributed vectors with ghost entries.
//!
//! A ghost update is one [`SimComm::exchange`] over the vector's
//! [`ExchangePlan`] (or its posted form, [`SimComm::exchange_post`] and
//! [`SimComm::exchange_wait`], around the overlapped SpMV's interior
//! rows): the values travel through per-neighbour slots `simmpi` reuses
//! from one exchange to the next, and the vector layer only supplies the
//! `copy` charge of gathering and scattering them.

use crate::work_costs;
use hetero_simmpi::collectives::ReduceOp;
use hetero_simmpi::{PostedExchange, SimComm};

pub use hetero_simmpi::ExchangePlan;

/// Fixed reduction chunk length. Dot products always sum per-chunk partials
/// in chunk order — at any thread count, including one — so the result is a
/// function of the data alone, never of the installed pool size.
const REDUCE_CHUNK: usize = 1024;

/// Minimum owned length before element-wise updates (axpy, xpby, scale) fan
/// out across the intra-rank pool. Element-wise results are independent of
/// the split, so this gates speed only.
const PAR_ELEMWISE_MIN: usize = 4096;

/// A distributed vector: `n_owned` owned entries followed by ghost copies of
/// remote entries. Reductions (dot, norms) run over owned entries only and
/// combine with an all-reduce.
#[derive(Debug, Clone, PartialEq)]
pub struct DistVector {
    values: Vec<f64>,
    n_owned: usize,
}

impl DistVector {
    /// A zero vector with `n_owned` owned and `n_ghost` ghost entries.
    pub fn zeros(n_owned: usize, n_ghost: usize) -> Self {
        DistVector {
            values: vec![0.0; n_owned + n_ghost],
            n_owned,
        }
    }

    /// Wraps existing local values (owned followed by ghosts).
    ///
    /// # Panics
    /// Panics if `n_owned` exceeds the value count.
    pub fn from_values(values: Vec<f64>, n_owned: usize) -> Self {
        assert!(n_owned <= values.len());
        DistVector { values, n_owned }
    }

    /// Owned entry count.
    #[inline]
    pub fn n_owned(&self) -> usize {
        self.n_owned
    }

    /// Owned + ghost entry count.
    #[inline]
    pub fn n_local(&self) -> usize {
        self.values.len()
    }

    /// All local values (owned then ghosts).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Mutable local values.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The owned prefix.
    #[inline]
    pub fn owned(&self) -> &[f64] {
        &self.values[..self.n_owned]
    }

    /// Mutable owned prefix.
    #[inline]
    pub fn owned_mut(&mut self) -> &mut [f64] {
        &mut self.values[..self.n_owned]
    }

    /// Sets every entry (owned and ghost) to `v`.
    pub fn fill(&mut self, v: f64) {
        self.values.fill(v);
    }

    /// Copies owned and ghost values from `other` (same layout).
    pub fn copy_from(&mut self, other: &DistVector, comm: &mut SimComm) {
        assert_eq!(self.values.len(), other.values.len());
        self.values.copy_from_slice(&other.values);
        comm.compute(work_costs::copy(self.values.len()));
    }

    /// `self += alpha * x` over owned entries (ghosts are refreshed lazily
    /// by the next exchange). Element-wise, so parallel and serial runs are
    /// bitwise identical.
    pub fn axpy(&mut self, alpha: f64, x: &DistVector, comm: &mut SimComm) {
        assert_eq!(self.n_owned, x.n_owned);
        let n = self.n_owned;
        let xs = &x.values[..n];
        if n >= PAR_ELEMWISE_MIN && rayon::current_num_threads() > 1 {
            rayon::fixed::for_each_chunk_mut(
                &mut self.values[..n],
                REDUCE_CHUNK,
                |_chunk, start, ys| {
                    let len = ys.len();
                    for (a, b) in ys.iter_mut().zip(&xs[start..start + len]) {
                        *a += alpha * b;
                    }
                },
            );
        } else {
            for (a, b) in self.values[..n].iter_mut().zip(xs) {
                *a += alpha * b;
            }
        }
        comm.compute(work_costs::axpy(n));
    }

    /// `self = x + beta * self` over owned entries (the CG direction
    /// update).
    pub fn xpby(&mut self, x: &DistVector, beta: f64, comm: &mut SimComm) {
        assert_eq!(self.n_owned, x.n_owned);
        let n = self.n_owned;
        let xs = &x.values[..n];
        if n >= PAR_ELEMWISE_MIN && rayon::current_num_threads() > 1 {
            rayon::fixed::for_each_chunk_mut(
                &mut self.values[..n],
                REDUCE_CHUNK,
                |_chunk, start, ys| {
                    let len = ys.len();
                    for (a, b) in ys.iter_mut().zip(&xs[start..start + len]) {
                        *a = b + beta * *a;
                    }
                },
            );
        } else {
            for (a, b) in self.values[..n].iter_mut().zip(xs) {
                *a = b + beta * *a;
            }
        }
        comm.compute(work_costs::axpy(n));
    }

    /// Scales owned entries by `alpha`.
    pub fn scale(&mut self, alpha: f64, comm: &mut SimComm) {
        let n = self.n_owned;
        if n >= PAR_ELEMWISE_MIN && rayon::current_num_threads() > 1 {
            rayon::fixed::for_each_chunk_mut(&mut self.values[..n], REDUCE_CHUNK, |_c, _s, ys| {
                for a in ys {
                    *a *= alpha;
                }
            });
        } else {
            for a in &mut self.values[..n] {
                *a *= alpha;
            }
        }
        comm.compute(work_costs::scale(n));
    }

    /// Global dot product (owned entries + all-reduce).
    ///
    /// The local part is a fixed-chunk reduction: per-chunk partial sums
    /// combined in chunk order, so the value is bitwise identical at any
    /// intra-rank thread count.
    pub fn dot(&self, other: &DistVector, comm: &mut SimComm) -> f64 {
        let local = self.dot_local(other, comm);
        comm.allreduce_scalar(ReduceOp::Sum, local)
    }

    /// This rank's partial of the global dot product: the same fixed-chunk
    /// local reduction as [`Self::dot`], *without* the all-reduce. Batch
    /// several partials through [`fused_dots`] (one `allreduce_vec`) so k
    /// inner products cost a single collective.
    pub fn dot_local(&self, other: &DistVector, comm: &mut SimComm) -> f64 {
        assert_eq!(self.n_owned, other.n_owned);
        let n = self.n_owned;
        let a = &self.values[..n];
        let b = &other.values[..n];
        let local = rayon::fixed::chunked_sum(n, REDUCE_CHUNK, |s, e| {
            a[s..e].iter().zip(&b[s..e]).map(|(x, y)| x * y).sum()
        });
        comm.compute(work_costs::dot(n));
        local
    }

    /// Global Euclidean norm.
    pub fn norm2(&self, comm: &mut SimComm) -> f64 {
        self.dot(self, comm).sqrt()
    }

    /// Refreshes ghost entries from their owners according to `plan`:
    /// one [`SimComm::exchange`], which charges a `copy` of each
    /// neighbour's interface before its send and after its receive.
    ///
    /// All ranks sharing an interface must call this collectively with
    /// mutually consistent plans.
    pub fn update_ghosts(&mut self, plan: &ExchangePlan, comm: &mut SimComm) {
        comm.exchange(plan, &mut self.values, work_costs::copy);
    }

    /// Posts the halo exchange of [`Self::update_ghosts`] without completing
    /// it ([`SimComm::exchange_post`]): gathers and sends interface values
    /// to every neighbour, then posts one receive per neighbour. Transfers
    /// progress during any compute charged before the matching
    /// [`Self::finish_ghost_update`] — the overlap the
    /// communication-avoiding SpMV exploits.
    pub fn post_ghost_update(&self, plan: &ExchangePlan, comm: &mut SimComm) -> PostedExchange {
        comm.exchange_post(plan, &self.values, work_costs::copy)
    }

    /// Completes a halo exchange posted by [`Self::post_ghost_update`]
    /// ([`SimComm::exchange_wait`]), scattering the received interface
    /// values into their ghost slots. After this the ghosts are bitwise
    /// what [`Self::update_ghosts`] would have produced.
    ///
    /// # Panics
    /// Panics if `posted` was posted over another plan's neighbour count or
    /// a received halo has the wrong length.
    pub fn finish_ghost_update(
        &mut self,
        plan: &ExchangePlan,
        posted: PostedExchange,
        comm: &mut SimComm,
    ) {
        comm.exchange_wait(plan, posted, &mut self.values, work_costs::copy);
    }
}

/// Fused inner products: the local partials of each `(a, b)` pair batched
/// through ONE `allreduce_vec`, so k reductions cost one collective's
/// latency. The tree combines element-wise in the same rank order as k
/// scalar all-reduces, so each returned value is bitwise-identical to the
/// corresponding `a.dot(b, comm)`.
///
/// The local partials are computed in one pass over the data: for each
/// `REDUCE_CHUNK` range, every pair's chunk partial is accumulated while
/// the range is hot in cache — pipelined solvers pass the same vector in
/// several pairs, and the per-pair sweep of the old implementation reloaded
/// it from memory k times. Each pair's partial still sums its chunk
/// partials in chunk order (and each chunk partial is the same zipped
/// sequential fold [`DistVector::dot_local`] computes), so every value is
/// bitwise what k separate `dot_local` calls produce, at any thread count.
/// The virtual-time charge is identical too: one `dot(n)` per pair, in
/// pair order.
pub fn fused_dots(pairs: &[(&DistVector, &DistVector)], comm: &mut SimComm) -> Vec<f64> {
    let Some(&(first, _)) = pairs.first() else {
        return comm.allreduce_vec(ReduceOp::Sum, &[]);
    };
    let n = first.n_owned;
    if pairs.iter().any(|(a, b)| a.n_owned != n || b.n_owned != n) {
        // Mixed layouts cannot share chunk boundaries; keep the per-pair
        // sweep (bitwise the same, just colder in cache).
        let locals: Vec<f64> = pairs.iter().map(|(a, b)| a.dot_local(b, comm)).collect();
        return comm.allreduce_vec(ReduceOp::Sum, &locals);
    }
    let mut locals = vec![0.0f64; pairs.len()];
    let mut s = 0;
    while s < n {
        let e = (s + REDUCE_CHUNK).min(n);
        for ((a, b), t) in pairs.iter().zip(&mut locals) {
            // Zipped equal-length subslices: the bounds checks hoist out of
            // the loop, leaving a pure multiply-add stream.
            let mut p = 0.0;
            for (x, y) in a.values[s..e].iter().zip(&b.values[s..e]) {
                p += x * y;
            }
            *t += p;
        }
        s = e;
    }
    for _ in pairs {
        comm.compute(work_costs::dot(n));
    }
    comm.allreduce_vec(ReduceOp::Sum, &locals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_simmpi::{run_spmd, ClusterTopology, ComputeModel, NetworkModel, SpmdConfig};

    fn cfg(size: usize) -> SpmdConfig {
        SpmdConfig {
            size,
            topo: ClusterTopology::uniform(size, 1),
            net: NetworkModel::gigabit_ethernet(),
            compute: ComputeModel::new(1e9, 4e9),
            seed: 1,
        }
    }

    #[test]
    fn local_ops() {
        run_spmd(cfg(1), |comm| {
            let mut a = DistVector::from_values(vec![1.0, 2.0, 3.0], 3);
            let b = DistVector::from_values(vec![1.0, 1.0, 1.0], 3);
            a.axpy(2.0, &b, comm);
            assert_eq!(a.owned(), &[3.0, 4.0, 5.0]);
            a.scale(0.5, comm);
            assert_eq!(a.owned(), &[1.5, 2.0, 2.5]);
            a.xpby(&b, 2.0, comm);
            assert_eq!(a.owned(), &[4.0, 5.0, 6.0]);
            assert_eq!(a.dot(&b, comm), 15.0);
        });
    }

    #[test]
    fn distributed_dot_and_norm() {
        let r = run_spmd(cfg(4), |comm| {
            // Each rank owns [rank+1] as a single entry.
            let v = DistVector::from_values(vec![(comm.rank() + 1) as f64], 1);
            (v.dot(&v, comm), v.norm2(comm))
        });
        for res in &r {
            assert_eq!(res.value.0, 30.0); // 1 + 4 + 9 + 16
            assert!((res.value.1 - 30.0f64.sqrt()).abs() < 1e-12);
        }
    }

    #[test]
    fn ghost_update_moves_owner_values() {
        // Two ranks, each owns 2 entries and ghosts the neighbor's first.
        let r = run_spmd(cfg(2), |comm| {
            let rank = comm.rank();
            let other = 1 - rank;
            let mut v = DistVector::zeros(2, 1);
            v.owned_mut()[0] = 10.0 * (rank + 1) as f64;
            v.owned_mut()[1] = -1.0;
            let plan = ExchangePlan {
                neighbors: vec![other],
                send_indices: vec![vec![0]],
                recv_indices: vec![vec![2]],
            };
            plan.validate(2, 3);
            v.update_ghosts(&plan, comm);
            v.as_slice().to_vec()
        });
        assert_eq!(r[0].value, vec![10.0, -1.0, 20.0]);
        assert_eq!(r[1].value, vec![20.0, -1.0, 10.0]);
    }

    #[test]
    fn repeated_exchanges_track_changes() {
        let r = run_spmd(cfg(2), |comm| {
            let rank = comm.rank();
            let other = 1 - rank;
            let plan = ExchangePlan {
                neighbors: vec![other],
                send_indices: vec![vec![0]],
                recv_indices: vec![vec![1]],
            };
            let mut v = DistVector::zeros(1, 1);
            let mut seen = Vec::new();
            for it in 0..3 {
                v.owned_mut()[0] = (10 * rank + it) as f64;
                v.update_ghosts(&plan, comm);
                seen.push(v.as_slice()[1]);
            }
            seen
        });
        assert_eq!(r[0].value, vec![10.0, 11.0, 12.0]);
        assert_eq!(r[1].value, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "send indices must be owned")]
    fn plan_validation_catches_bad_send() {
        let plan = ExchangePlan {
            neighbors: vec![1],
            send_indices: vec![vec![5]],
            recv_indices: vec![vec![]],
        };
        plan.validate(2, 3);
    }

    #[test]
    #[should_panic(expected = "recv indices must be ghosts")]
    fn plan_validation_catches_bad_recv() {
        let plan = ExchangePlan {
            neighbors: vec![1],
            send_indices: vec![vec![0]],
            recv_indices: vec![vec![0]],
        };
        plan.validate(2, 3);
    }

    #[test]
    fn a_halo_of_the_wrong_length_names_its_sender() {
        // Rank 0 sends two values where rank 1's plan receives three, on
        // both engines and through both forms of the update.
        use hetero_simmpi::{run_spmd_opts, EngineOpts, FaultPlan, COOPERATIVE_SUPPORTED};
        let mut engines = vec![EngineOpts::threads()];
        if COOPERATIVE_SUPPORTED {
            engines.push(EngineOpts::cooperative(1));
        }
        for opts in engines {
            for posted in [false, true] {
                let err = std::panic::catch_unwind(|| {
                    run_spmd_opts(cfg(2), opts, FaultPlan::none(), None, |comm| {
                        let plan = if comm.rank() == 0 {
                            ExchangePlan {
                                neighbors: vec![1],
                                send_indices: vec![vec![0, 1]],
                                recv_indices: vec![vec![3]],
                            }
                        } else {
                            ExchangePlan {
                                neighbors: vec![0],
                                send_indices: vec![vec![0]],
                                recv_indices: vec![vec![3, 4, 5]],
                            }
                        };
                        let mut v = DistVector::zeros(3, 3);
                        if posted {
                            let p = v.post_ghost_update(&plan, comm);
                            v.finish_ghost_update(&plan, p, comm);
                        } else {
                            v.update_ghosts(&plan, comm);
                        }
                    })
                })
                .unwrap_err();
                let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
                assert!(
                    msg.starts_with("rank 1 panicked:")
                        && msg.contains("halo size mismatch with rank 0"),
                    "{opts:?}, posted {posted}: {msg}"
                );
            }
        }
    }

    #[test]
    fn empty_plan_is_noop() {
        run_spmd(cfg(1), |comm| {
            let mut v = DistVector::from_values(vec![1.0], 1);
            v.update_ghosts(&ExchangePlan::empty(), comm);
            assert_eq!(v.owned(), &[1.0]);
        });
    }
}
