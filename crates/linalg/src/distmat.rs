//! Row-distributed sparse matrices.

use crate::csr::CsrMatrix;
use crate::vector::{DistVector, ExchangePlan};
use crate::work_costs;
use hetero_simmpi::SimComm;

/// A row-distributed sparse matrix: this rank stores the rows of its owned
/// DoFs, with columns addressing the local space `[owned | ghost]`. The
/// SpMV refreshes the input vector's ghosts, multiplies locally, and charges
/// the roofline cost — the exact kernel structure of an Epetra
/// `Multiply` + `Import` in the paper's Trilinos stack.
#[derive(Debug, Clone, PartialEq)]
pub struct DistMatrix {
    local: CsrMatrix,
    plan: ExchangePlan,
    /// Owned entries of the *column* (input-vector) space. Equals
    /// `local.num_rows()` for square operators; differs for mixed-space
    /// (e.g. velocity x pressure) couplings.
    col_n_owned: usize,
    /// Rows whose columns are all owned, ascending: computable before the
    /// halo refresh completes. Depends only on the sparsity structure, so
    /// the cache survives numeric updates through [`Self::local_mut`].
    interior_rows: Vec<usize>,
    /// Rows referencing at least one ghost column, ascending.
    boundary_rows: Vec<usize>,
    /// Stored entries in interior rows (splits the SpMV cost charge).
    interior_nnz: usize,
}

impl DistMatrix {
    /// Wraps a local CSR block of a **square** operator (row and column
    /// spaces coincide) and its halo plan.
    ///
    /// # Panics
    /// Panics if the plan is inconsistent with the matrix dimensions
    /// (`num_rows` owned, `num_cols` local entries).
    pub fn new(local: CsrMatrix, plan: ExchangePlan) -> Self {
        let col_n_owned = local.num_rows();
        Self::rectangular(local, plan, col_n_owned)
    }

    /// Wraps a local CSR block whose column space is a different DoF space
    /// with `col_n_owned` owned entries (mixed couplings such as the
    /// pressure gradient).
    ///
    /// # Panics
    /// Panics if the plan is inconsistent with the column space layout.
    pub fn rectangular(local: CsrMatrix, plan: ExchangePlan, col_n_owned: usize) -> Self {
        plan.validate(col_n_owned, local.num_cols());
        let mut interior_rows = Vec::new();
        let mut boundary_rows = Vec::new();
        let mut interior_nnz = 0usize;
        for r in 0..local.num_rows() {
            let (cols, _) = local.row(r);
            if cols.iter().all(|&c| (c as usize) < col_n_owned) {
                interior_nnz += cols.len();
                interior_rows.push(r);
            } else {
                boundary_rows.push(r);
            }
        }
        DistMatrix {
            local,
            plan,
            col_n_owned,
            interior_rows,
            boundary_rows,
            interior_nnz,
        }
    }

    /// The local CSR block.
    #[inline]
    pub fn local(&self) -> &CsrMatrix {
        &self.local
    }

    /// Mutable local CSR block (for time-stepping updates of matrix values).
    #[inline]
    pub fn local_mut(&mut self) -> &mut CsrMatrix {
        &mut self.local
    }

    /// Owned rows.
    #[inline]
    pub fn n_owned(&self) -> usize {
        self.local.num_rows()
    }

    /// Local columns (owned + ghost).
    #[inline]
    pub fn n_local(&self) -> usize {
        self.local.num_cols()
    }

    /// Owned entries of the column (input-vector) space.
    #[inline]
    pub fn col_n_owned(&self) -> usize {
        self.col_n_owned
    }

    /// Local stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.local.nnz()
    }

    /// `y = A x`. Refreshes `x`'s ghosts first (collective across ranks).
    pub fn spmv(&self, x: &mut DistVector, y: &mut DistVector, comm: &mut SimComm) {
        assert_eq!(x.n_local(), self.n_local());
        assert_eq!(
            x.n_owned(),
            self.col_n_owned,
            "x must live in the column space"
        );
        assert_eq!(y.n_owned(), self.n_owned());
        x.update_ghosts(&self.plan, comm);
        self.local
            .spmv(x.as_slice(), &mut y.as_mut_slice()[..self.local.num_rows()]);
        comm.compute(work_costs::spmv(self.local.nnz()));
    }

    /// A zero vector shaped like this matrix's column space (for square
    /// operators this is also the row space, usable as both `x` and `y`).
    pub fn new_vector(&self) -> DistVector {
        DistVector::zeros(self.col_n_owned, self.n_local() - self.col_n_owned)
    }

    /// `y = A x` with the halo exchange overlapped by interior work: posts
    /// the interface sends and receives, evaluates the interior rows while
    /// the transfers progress, completes the exchange, then evaluates the
    /// boundary rows.
    ///
    /// Bitwise-identical values to [`Self::spmv`]: each row's dot product
    /// reads the same inputs in the same order, interior rows never touch a
    /// ghost column, and the two row subsets partition the row space. Only
    /// the virtual-time schedule differs — the transfer runs under the
    /// interior compute instead of serially before all of it.
    pub fn spmv_overlapped(&self, x: &mut DistVector, y: &mut DistVector, comm: &mut SimComm) {
        assert_eq!(x.n_local(), self.n_local());
        assert_eq!(
            x.n_owned(),
            self.col_n_owned,
            "x must live in the column space"
        );
        assert_eq!(y.n_owned(), self.n_owned());
        let rows = self.local.num_rows();
        let posted = x.post_ghost_update(&self.plan, comm);
        self.local.spmv_rows(
            &self.interior_rows,
            x.as_slice(),
            &mut y.as_mut_slice()[..rows],
        );
        comm.compute(work_costs::spmv(self.interior_nnz));
        x.finish_ghost_update(&self.plan, posted, comm);
        self.local.spmv_rows(
            &self.boundary_rows,
            x.as_slice(),
            &mut y.as_mut_slice()[..rows],
        );
        comm.compute(work_costs::spmv(self.local.nnz() - self.interior_nnz));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::TripletBuilder;
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

    /// Builds the 1-D Laplacian [-1 2 -1] of global size 2*p distributed as
    /// 2 rows per rank, and applies it to the global vector of ones.
    /// Interior rows produce 0; the two boundary rows produce 1.
    #[test]
    fn distributed_spmv_matches_serial_laplacian() {
        for p in [1usize, 2, 4] {
            let n_per = 2;
            let n_global = n_per * p;
            let results = run_spmd(cfg(p), move |comm| {
                let rank = comm.rank();
                let size = comm.size();
                let first = rank * n_per;
                // Ghosts: one on each side unless at a domain end.
                let left = (rank > 0).then(|| first - 1);
                let right = (rank + 1 < size).then(|| first + n_per);
                let mut ghosts = Vec::new();
                if let Some(g) = left {
                    ghosts.push(g);
                }
                if let Some(g) = right {
                    ghosts.push(g);
                }
                let n_local = n_per + ghosts.len();
                // local index of a global dof
                let local_of = |g: usize| -> usize {
                    if (first..first + n_per).contains(&g) {
                        g - first
                    } else {
                        n_per + ghosts.iter().position(|&x| x == g).unwrap()
                    }
                };
                let mut b = TripletBuilder::new(n_per, n_local);
                for r in 0..n_per {
                    let g = first + r;
                    b.add(r, r, 2.0);
                    if g > 0 {
                        b.add(r, local_of(g - 1), -1.0);
                    }
                    if g + 1 < n_global {
                        b.add(r, local_of(g + 1), -1.0);
                    }
                }
                let mut plan = ExchangePlan::default();
                let mut add_neighbor = |nb: usize, send_local: usize, ghost_global: usize| {
                    plan.neighbors.push(nb);
                    plan.send_indices.push(vec![send_local]);
                    plan.recv_indices.push(vec![local_of(ghost_global)]);
                };
                if rank > 0 {
                    add_neighbor(rank - 1, 0, first - 1);
                }
                if rank + 1 < size {
                    add_neighbor(rank + 1, n_per - 1, first + n_per);
                }
                let a = DistMatrix::new(b.build(), plan);
                let mut x = a.new_vector();
                x.fill(1.0);
                let mut y = a.new_vector();
                a.spmv(&mut x, &mut y, comm);
                y.owned().to_vec()
            });
            // Assemble the global result.
            let global: Vec<f64> = results.iter().flat_map(|r| r.value.clone()).collect();
            for (i, &v) in global.iter().enumerate() {
                let expected = if i == 0 || i == n_global - 1 {
                    1.0
                } else {
                    0.0
                };
                assert!((v - expected).abs() < 1e-14, "p = {p}, row {i}: {v}");
            }
        }
    }

    /// The overlapped SpMV must produce bitwise-identical values to the
    /// blocking one on the distributed Laplacian, at every rank count —
    /// and classify the rows correctly.
    #[test]
    fn overlapped_spmv_is_bitwise_identical_to_blocking() {
        for p in [1usize, 2, 4] {
            let n_per = 3;
            let results = run_spmd(cfg(p), move |comm| {
                let rank = comm.rank();
                let size = comm.size();
                let first = rank * n_per;
                let n_global = n_per * size;
                let mut ghosts = Vec::new();
                if rank > 0 {
                    ghosts.push(first - 1);
                }
                if rank + 1 < size {
                    ghosts.push(first + n_per);
                }
                let n_local = n_per + ghosts.len();
                let local_of = |g: usize| -> usize {
                    if (first..first + n_per).contains(&g) {
                        g - first
                    } else {
                        n_per + ghosts.iter().position(|&x| x == g).unwrap()
                    }
                };
                let mut b = TripletBuilder::new(n_per, n_local);
                for r in 0..n_per {
                    let g = first + r;
                    b.add(r, r, 2.0 + g as f64 * 0.01);
                    if g > 0 {
                        b.add(r, local_of(g - 1), -1.0);
                    }
                    if g + 1 < n_global {
                        b.add(r, local_of(g + 1), -1.0);
                    }
                }
                let mut plan = ExchangePlan::default();
                if rank > 0 {
                    plan.neighbors.push(rank - 1);
                    plan.send_indices.push(vec![0]);
                    plan.recv_indices.push(vec![local_of(first - 1)]);
                }
                if rank + 1 < size {
                    plan.neighbors.push(rank + 1);
                    plan.send_indices.push(vec![n_per - 1]);
                    plan.recv_indices.push(vec![local_of(first + n_per)]);
                }
                let a = DistMatrix::new(b.build(), plan);
                assert_eq!(a.interior_rows.len() + a.boundary_rows.len(), a.n_owned());
                if size > 1 {
                    assert!(!a.boundary_rows.is_empty());
                }
                let mut x1 = a.new_vector();
                for (i, v) in x1.owned_mut().iter_mut().enumerate() {
                    *v = ((first + i) as f64 * 0.7).sin();
                }
                let mut x2 = a.new_vector();
                x2.owned_mut().copy_from_slice(x1.owned());
                let mut y1 = a.new_vector();
                let mut y2 = a.new_vector();
                a.spmv(&mut x1, &mut y1, comm);
                a.spmv_overlapped(&mut x2, &mut y2, comm);
                (y1.owned().to_vec(), y2.owned().to_vec())
            });
            for r in &results {
                assert_eq!(r.value.0, r.value.1, "p = {p}: values must be bitwise");
            }
        }
    }

    #[test]
    fn spmv_charges_work() {
        let r = run_spmd(cfg(1), |comm| {
            let mut b = TripletBuilder::new(2, 2);
            b.add(0, 0, 1.0);
            b.add(1, 1, 1.0);
            let a = DistMatrix::new(b.build(), ExchangePlan::default());
            let mut x = a.new_vector();
            x.fill(3.0);
            let mut y = a.new_vector();
            a.spmv(&mut x, &mut y, comm);
            (y.owned().to_vec(), comm.stats().flops)
        });
        assert_eq!(r[0].value.0, vec![3.0, 3.0]);
        assert!(r[0].value.1 > 0.0);
    }

    #[test]
    #[should_panic(expected = "recv indices must be ghosts")]
    fn inconsistent_plan_rejected() {
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 0, 1.0);
        let plan = ExchangePlan {
            neighbors: vec![1],
            send_indices: vec![vec![0]],
            recv_indices: vec![vec![1]], // 1 is owned, not a ghost
        };
        DistMatrix::new(b.build(), plan);
    }
}
