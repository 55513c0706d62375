//! Preconditioners: Jacobi, symmetric Gauss–Seidel (SSOR), and local ILU(0).
//!
//! All three act on the rank-local owned block only (couplings to ghost
//! columns are dropped), making them non-overlapping additive-Schwarz
//! preconditioners across ranks — the standard Ifpack configuration the
//! paper's solver stack uses. Stronger local solves (ILU) trade a costlier
//! "preconditioner" phase for fewer Krylov iterations, which is exactly the
//! phase trade-off the paper's figures break out.
//!
//! Time steppers rebuild SSOR and ILU(0) every step on a sparsity that never
//! changes, so — like assembly (`crate::csr`) — both are split into a
//! *symbolic* phase ([`OwnedBlockSymbolic`]: where each row's owned block
//! and diagonal sit in the source structure; computed once per sparsity and
//! `Arc`-shared by every factor made from it) and a *numeric* phase (copy
//! the matrix's values, then one allocation-free IKJ sweep). The numeric
//! phase performs, per row, exactly the floating-point operations of the
//! textbook get/set loop kept as the test oracle below, in the same order,
//! so factors are bitwise independent of the split. The triangular sweeps
//! visit rows in natural order (ascending forward, descending backward), so
//! every row reads only rows the sweep has already finished.

use crate::csr::{CsrMatrix, SparsityPattern};
use crate::distmat::DistMatrix;
use crate::vector::DistVector;
use crate::work_costs;
use hetero_simmpi::SimComm;
use std::ops::Range;
use std::sync::Arc;

/// The symbolic phase of [`Ssor`] and [`IluZero`]: everything about a local
/// block's owned×owned submatrix that depends on its sparsity alone.
///
/// Immutable once built. A time stepper analyses its operator's sparsity
/// once, keeps the result in an `Arc` beside the assembly structure, and
/// hands it to [`IluZero::with_symbolic`] / [`Ssor::with_symbolic`] every
/// step; the factors share it through the `Arc` and own only their values.
///
/// A CSR row stores its columns ascending and owned columns precede ghost
/// columns, so the block's row `i` is the leading run of the source row:
/// the block is addressed by *source* slots — `row_ptr[i]..row_end[i]` into
/// the source `col_idx` and value arrays — and adds only per-row pointers
/// to the structure arrays, which the analysis shares with the pattern or
/// matrix it was made from rather than copies.
#[derive(Debug)]
pub struct OwnedBlockSymbolic {
    /// The source structure: owned rows x local columns.
    row_ptr: Arc<[usize]>,
    col_idx: Arc<[u32]>,
    /// One past the slot of each row's last owned column.
    row_end: Vec<usize>,
    /// Slot of each row's diagonal entry.
    diag: Vec<usize>,
    /// Stored entries of the block (ghost couplings excluded).
    nnz: usize,
}

impl OwnedBlockSymbolic {
    /// Analyses the owned×owned block of matrices built from `pattern`.
    ///
    /// # Panics
    /// Panics if a row stores no diagonal entry.
    pub fn from_pattern(pattern: &SparsityPattern) -> Self {
        let (row_ptr, col_idx) = pattern.structure();
        Self::analyze(Arc::clone(row_ptr), Arc::clone(col_idx))
    }

    /// Analyses the owned×owned block of `a` (owned rows × local columns).
    ///
    /// # Panics
    /// Panics if a row stores no diagonal entry.
    fn of_matrix(a: &CsrMatrix) -> Self {
        let (row_ptr, col_idx) = a.structure();
        Self::analyze(Arc::clone(row_ptr), Arc::clone(col_idx))
    }

    fn analyze(row_ptr: Arc<[usize]>, col_idx: Arc<[u32]>) -> Self {
        let n = row_ptr.len() - 1;
        let mut row_end = Vec::with_capacity(n);
        let mut diag = Vec::with_capacity(n);
        for i in 0..n {
            let cols = &col_idx[row_ptr[i]..row_ptr[i + 1]];
            let owned = &cols[..cols.partition_point(|&c| (c as usize) < n)];
            // A row without a stored diagonal has no pivot to divide by.
            let d = owned.binary_search(&(i as u32)).unwrap_or_else(|_| {
                panic!("zero pivot at row {i}: zero diagonal entry (the diagonal is not stored)")
            });
            row_end.push(row_ptr[i] + owned.len());
            diag.push(row_ptr[i] + d);
        }
        let nnz = row_end.iter().zip(&row_ptr[..n]).map(|(e, s)| e - s).sum();
        OwnedBlockSymbolic {
            row_ptr,
            col_idx,
            row_end,
            diag,
            nnz,
        }
    }

    /// Rows (= columns) of the block.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.diag.len()
    }

    /// Stored entries of the block (ghost couplings excluded) — the size
    /// every setup and sweep charge is computed from.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Slots of row `i`'s block entries.
    #[inline]
    fn row(&self, i: usize) -> Range<usize> {
        self.row_ptr[i]..self.row_end[i]
    }

    /// Slots of row `i`'s strictly lower entries (columns `< i`).
    #[inline]
    fn lower(&self, i: usize) -> Range<usize> {
        self.row_ptr[i]..self.diag[i]
    }

    /// Slots of row `i`'s strictly upper entries (owned columns `> i`).
    #[inline]
    fn upper(&self, i: usize) -> Range<usize> {
        self.diag[i] + 1..self.row_end[i]
    }

    /// A copy of `a`'s values — already in the slot order the analysis
    /// addresses them by; ghost slots ride along unread. A matrix built from
    /// the analysed pattern shares its structure arrays, so the check is
    /// two pointer comparisons; other matrices are compared entry by entry.
    ///
    /// # Panics
    /// Panics if `a` does not have exactly the sparsity that was analysed.
    fn checked_values(&self, a: &CsrMatrix) -> Vec<f64> {
        let (row_ptr, col_idx) = a.structure();
        let shared = Arc::ptr_eq(row_ptr, &self.row_ptr) && Arc::ptr_eq(col_idx, &self.col_idx);
        assert!(
            shared || (row_ptr[..] == self.row_ptr[..] && col_idx[..] == self.col_idx[..]),
            "matrix sparsity differs from the symbolic analysis"
        );
        a.values().to_vec()
    }

    /// `acc - sum(vals[p] * z[col(p)])` over `slots`, subtracting one entry
    /// at a time in column order — the inner loop of all four triangular
    /// sweeps.
    #[inline]
    fn subtract_row(&self, mut acc: f64, slots: Range<usize>, vals: &[f64], z: &[f64]) -> f64 {
        for (&c, &v) in self.col_idx[slots.clone()].iter().zip(&vals[slots]) {
            acc -= v * z[c as usize];
        }
        acc
    }
}

/// Applies `z = M^{-1} r` over owned entries (ghosts of `z` unspecified).
pub trait Preconditioner {
    /// Applies the preconditioner.
    fn apply(&self, r: &DistVector, z: &mut DistVector, comm: &mut SimComm);

    /// Algorithm name for reports.
    fn name(&self) -> &'static str;
}

/// Identity preconditioner (unpreconditioned Krylov).
#[derive(Debug, Clone, Copy, Default)]
pub struct Identity;

impl Preconditioner for Identity {
    fn apply(&self, r: &DistVector, z: &mut DistVector, comm: &mut SimComm) {
        z.owned_mut().copy_from_slice(r.owned());
        comm.compute(work_costs::copy(r.n_owned()));
    }

    fn name(&self) -> &'static str {
        "none"
    }
}

/// Diagonal (Jacobi) preconditioner.
#[derive(Debug, Clone)]
pub struct Jacobi {
    inv_diag: Vec<f64>,
}

impl Jacobi {
    /// Builds from the matrix diagonal, charging the (tiny) setup cost.
    ///
    /// # Panics
    /// Panics if any diagonal entry is zero.
    pub fn new(a: &DistMatrix, comm: &mut SimComm) -> Self {
        let inv_diag: Vec<f64> = a
            .local()
            .diagonal()
            .into_iter()
            .map(|d| {
                assert!(d != 0.0, "zero diagonal entry");
                1.0 / d
            })
            .collect();
        comm.compute(work_costs::scale(inv_diag.len()));
        Jacobi { inv_diag }
    }
}

impl Preconditioner for Jacobi {
    fn apply(&self, r: &DistVector, z: &mut DistVector, comm: &mut SimComm) {
        let n = self.inv_diag.len();
        for ((zi, ri), di) in z.owned_mut().iter_mut().zip(r.owned()).zip(&self.inv_diag) {
            *zi = ri * di;
        }
        comm.compute(work_costs::scale(n));
    }

    fn name(&self) -> &'static str {
        "jacobi"
    }
}

/// Symmetric Gauss–Seidel (SSOR with omega = 1) on the local owned block.
#[derive(Debug, Clone)]
pub struct Ssor {
    symbolic: Arc<OwnedBlockSymbolic>,
    /// The matrix's values, in the symbolic's slot order.
    values: Vec<f64>,
}

impl Ssor {
    /// Builds from the owned block of `a` (ghost couplings dropped):
    /// analyses the sparsity, then copies the values.
    ///
    /// # Panics
    /// Panics if any diagonal entry is zero or not stored.
    pub fn new(a: &DistMatrix, comm: &mut SimComm) -> Self {
        let symbolic = Arc::new(OwnedBlockSymbolic::of_matrix(a.local()));
        Self::with_symbolic(symbolic, a, comm)
    }

    /// The numeric phase alone: copies the values of `a`, whose sparsity
    /// `symbolic` was analysed from earlier.
    ///
    /// # Panics
    /// Panics if any diagonal entry is zero, or if `a`'s sparsity is not
    /// the one `symbolic` was analysed from.
    pub fn with_symbolic(
        symbolic: Arc<OwnedBlockSymbolic>,
        a: &DistMatrix,
        comm: &mut SimComm,
    ) -> Self {
        let values = symbolic.checked_values(a.local());
        assert!(
            symbolic.diag.iter().all(|&d| values[d] != 0.0),
            "zero diagonal entry"
        );
        comm.compute(work_costs::copy(symbolic.nnz()));
        Ssor { symbolic, values }
    }
}

impl Preconditioner for Ssor {
    fn apply(&self, r: &DistVector, z: &mut DistVector, comm: &mut SimComm) {
        let s = &*self.symbolic;
        let vals = &self.values[..];
        let n = s.num_rows();
        let zs = &mut z.owned_mut()[..n];
        let rs = r.owned();
        // Forward sweep: (D + L) y = r.
        for i in 0..n {
            zs[i] = s.subtract_row(rs[i], s.lower(i), vals, zs) / vals[s.diag[i]];
        }
        // Scale by D.
        for (zi, &d) in zs.iter_mut().zip(&s.diag) {
            *zi *= vals[d];
        }
        // Backward sweep: (D + U) z = D y.
        for i in (0..n).rev() {
            zs[i] = s.subtract_row(zs[i], s.upper(i), vals, zs) / vals[s.diag[i]];
        }
        comm.compute(work_costs::sweep(2 * s.nnz()));
    }

    fn name(&self) -> &'static str {
        "ssor"
    }
}

/// Incomplete LU factorization with zero fill on the local owned block.
#[derive(Debug, Clone)]
pub struct IluZero {
    symbolic: Arc<OwnedBlockSymbolic>,
    /// Combined LU factors in the symbolic's slot order (unit lower
    /// diagonal implicit).
    factors: Vec<f64>,
}

impl IluZero {
    /// Factorizes the owned block of `a` (IKJ variant, zero fill), charging
    /// the setup cost — the paper's "preconditioner computation" step
    /// (iiia). One-shot: analyses the sparsity, then factorizes.
    ///
    /// # Panics
    /// Panics if a zero pivot is encountered or a diagonal is not stored.
    pub fn new(a: &DistMatrix, comm: &mut SimComm) -> Self {
        let symbolic = Arc::new(OwnedBlockSymbolic::of_matrix(a.local()));
        Self::with_symbolic(symbolic, a, comm)
    }

    /// The numeric phase alone: refactorizes the owned block of `a` through
    /// a `symbolic` analysed earlier from the same sparsity. Charges exactly
    /// what [`Self::new`] charges and produces bitwise the same factors.
    ///
    /// # Panics
    /// Panics if a zero pivot is encountered, or if `a`'s sparsity is not
    /// the one `symbolic` was analysed from.
    pub fn with_symbolic(
        symbolic: Arc<OwnedBlockSymbolic>,
        a: &DistMatrix,
        comm: &mut SimComm,
    ) -> Self {
        let s = &*symbolic;
        let n = s.num_rows();
        let mut f = s.checked_values(a.local());
        // Dense work row, indexed by column. Row k's upper part is applied
        // to it without a membership test: zero fill discards exactly the
        // updates that land outside row i's pattern, and those positions
        // are never read — every row overwrites its own columns before it
        // uses them. Row i's entries see the same subtractions in the same
        // order as under a tested update, minus a data-dependent branch.
        let mut w = vec![0.0f64; n];
        for i in 0..n {
            for p in s.row(i) {
                w[s.col_idx[p] as usize] = f[p];
            }
            // k ascending over row i's lower columns; rows k < i are final.
            for pk in s.lower(i) {
                let k = s.col_idx[pk] as usize;
                let lik = w[k] / f[s.diag[k]];
                w[k] = lik;
                // a_ij -= l_ik * a_kj for j > k, j ascending.
                let upper_k = s.upper(k);
                for (&j, &akj) in s.col_idx[upper_k.clone()].iter().zip(&f[upper_k]) {
                    w[j as usize] -= lik * akj;
                }
            }
            for p in s.row(i) {
                f[p] = w[s.col_idx[p] as usize];
            }
            assert!(f[s.diag[i]] != 0.0, "zero pivot at row {i}");
        }
        comm.compute(work_costs::ilu_factor(s.nnz(), n));
        IluZero {
            symbolic,
            factors: f,
        }
    }
}

impl Preconditioner for IluZero {
    fn apply(&self, r: &DistVector, z: &mut DistVector, comm: &mut SimComm) {
        let s = &*self.symbolic;
        let f = &self.factors[..];
        let n = s.num_rows();
        let zs = &mut z.owned_mut()[..n];
        let rs = r.owned();
        // Forward: L y = r (unit diagonal).
        for i in 0..n {
            zs[i] = s.subtract_row(rs[i], s.lower(i), f, zs);
        }
        // Backward: U z = y.
        for i in (0..n).rev() {
            zs[i] = s.subtract_row(zs[i], s.upper(i), f, zs) / f[s.diag[i]];
        }
        comm.compute(work_costs::sweep(s.nnz()));
    }

    fn name(&self) -> &'static str {
        "ilu0"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::TripletBuilder;
    use crate::vector::ExchangePlan;
    use hetero_simmpi::{run_spmd, ClusterTopology, ComputeModel, NetworkModel, SpmdConfig};

    fn cfg() -> SpmdConfig {
        SpmdConfig {
            size: 1,
            topo: ClusterTopology::uniform(1, 1),
            net: NetworkModel::ideal(),
            compute: ComputeModel::new(1e9, 4e9),
            seed: 0,
        }
    }

    fn tridiag(n: usize) -> DistMatrix {
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 2.0);
            if i > 0 {
                b.add(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
            }
        }
        DistMatrix::new(b.build(), ExchangePlan::empty())
    }

    #[test]
    fn jacobi_divides_by_diagonal() {
        run_spmd(cfg(), |comm| {
            let a = tridiag(4);
            let m = Jacobi::new(&a, comm);
            let r = DistVector::from_values(vec![2.0, 4.0, 6.0, 8.0], 4);
            let mut z = a.new_vector();
            m.apply(&r, &mut z, comm);
            assert_eq!(z.owned(), &[1.0, 2.0, 3.0, 4.0]);
        });
    }

    #[test]
    fn ilu0_is_exact_for_tridiagonal() {
        // A tridiagonal matrix has no fill, so ILU(0) = LU and
        // applying it solves exactly.
        run_spmd(cfg(), |comm| {
            let n = 6;
            let a = tridiag(n);
            let m = IluZero::new(&a, comm);
            // b = A * ones.
            let mut ones = a.new_vector();
            ones.fill(1.0);
            let mut b = a.new_vector();
            a.spmv(&mut ones, &mut b, comm);
            let mut z = a.new_vector();
            m.apply(&b, &mut z, comm);
            for &v in z.owned() {
                assert!((v - 1.0).abs() < 1e-12, "z = {v}");
            }
        });
    }

    #[test]
    fn ssor_reduces_error_as_a_smoother() {
        run_spmd(cfg(), |comm| {
            let a = tridiag(8);
            let m = Ssor::new(&a, comm);
            // For r = A e with e = ones, z = M^{-1} r should be much closer
            // to e than the Jacobi result is.
            let mut e = a.new_vector();
            e.fill(1.0);
            let mut r = a.new_vector();
            a.spmv(&mut e, &mut r, comm);
            let mut z_ssor = a.new_vector();
            m.apply(&r, &mut z_ssor, comm);
            let jac = Jacobi::new(&a, comm);
            let mut z_jac = a.new_vector();
            jac.apply(&r, &mut z_jac, comm);
            let err = |z: &DistVector| -> f64 {
                z.owned()
                    .iter()
                    .map(|v| (v - 1.0).powi(2))
                    .sum::<f64>()
                    .sqrt()
            };
            assert!(
                err(&z_ssor) < err(&z_jac),
                "{} vs {}",
                err(&z_ssor),
                err(&z_jac)
            );
        });
    }

    #[test]
    fn identity_copies() {
        run_spmd(cfg(), |comm| {
            let r = DistVector::from_values(vec![1.0, -2.0], 2);
            let mut z = DistVector::zeros(2, 0);
            Identity.apply(&r, &mut z, comm);
            assert_eq!(z.owned(), r.owned());
        });
    }

    #[test]
    fn ghost_couplings_are_dropped() {
        // A 2x3 local block (1 ghost column): preconditioners must only see
        // the owned 2x2 part.
        run_spmd(cfg(), |comm| {
            let mut b = TripletBuilder::new(2, 3);
            b.add(0, 0, 4.0);
            b.add(1, 1, 4.0);
            b.add(0, 2, -1.0); // ghost coupling
                               // Plan is empty because this is a single-rank test of structure.
            let a = DistMatrix::new(b.build(), ExchangePlan::empty());
            let m = IluZero::new(&a, comm);
            let r = DistVector::from_values(vec![4.0, 8.0, 0.0], 2);
            let mut z = a.new_vector();
            m.apply(&r, &mut z, comm);
            assert_eq!(z.owned(), &[1.0, 2.0]);
        });
    }

    #[test]
    #[should_panic(expected = "zero diagonal")]
    fn jacobi_rejects_zero_diagonal() {
        run_spmd(cfg(), |comm| {
            let mut b = TripletBuilder::new(2, 2);
            b.add(0, 0, 1.0);
            b.add(1, 1, 0.0);
            let a = DistMatrix::new(b.build(), ExchangePlan::empty());
            let _ = Jacobi::new(&a, comm);
        });
    }

    #[test]
    #[should_panic(expected = "zero pivot at row 1")]
    fn ilu0_rejects_a_zero_pivot_in_the_last_row() {
        // [[1, 1], [1, 1]] eliminates to U11 = 0. No later row divides by
        // it, so only a check of each row's own pivot can catch it.
        run_spmd(cfg(), |comm| {
            let mut b = TripletBuilder::new(2, 2);
            for (r, c) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                b.add(r, c, 1.0);
            }
            let a = DistMatrix::new(b.build(), ExchangePlan::empty());
            let _ = IluZero::new(&a, comm);
        });
    }

    #[test]
    #[should_panic(expected = "zero pivot at row 1")]
    fn ilu0_rejects_a_structurally_missing_diagonal() {
        // Row 1 stores no diagonal and no later row couples to it: a
        // back-substitution must not invent a unit pivot for it.
        run_spmd(cfg(), |comm| {
            let mut b = TripletBuilder::new(2, 2);
            b.add(0, 0, 2.0);
            b.add(1, 0, 1.0);
            let a = DistMatrix::new(b.build(), ExchangePlan::empty());
            let _ = IluZero::new(&a, comm);
        });
    }

    #[test]
    #[should_panic(expected = "zero diagonal entry")]
    fn ssor_rejects_a_structurally_missing_diagonal() {
        run_spmd(cfg(), |comm| {
            let mut b = TripletBuilder::new(2, 2);
            b.add(0, 0, 2.0);
            b.add(1, 0, 1.0);
            let a = DistMatrix::new(b.build(), ExchangePlan::empty());
            let _ = Ssor::new(&a, comm);
        });
    }

    #[test]
    #[should_panic(expected = "zero diagonal entry")]
    fn ssor_rejects_a_stored_zero_diagonal() {
        run_spmd(cfg(), |comm| {
            let mut b = TripletBuilder::new(2, 2);
            b.add(0, 0, 1.0);
            b.add(1, 1, 0.0);
            let a = DistMatrix::new(b.build(), ExchangePlan::empty());
            let _ = Ssor::new(&a, comm);
        });
    }

    // ---- The oracle: the factorisation and sweeps as they were before the
    // symbolic/numeric split — textbook loops over `get`/`set` on a
    // re-sorted copy of the owned block. Every property below pins the
    // split implementation to these, bit for bit.

    /// Restricts a local block (owned rows x local cols) to its owned x
    /// owned square submatrix.
    fn restrict_to_owned(a: &CsrMatrix) -> CsrMatrix {
        let n = a.num_rows();
        let mut b = TripletBuilder::new(n, n);
        for (r, c, v) in a.iter() {
            if c < n {
                b.add(r, c, v);
            }
        }
        b.build()
    }

    fn set(m: &mut CsrMatrix, r: usize, c: usize, v: f64) {
        let (cols, vals) = m.row_values_mut(r);
        let i = cols
            .binary_search(&(c as u32))
            .expect("entry exists in sparsity");
        vals[i] = v;
    }

    fn reference_ilu0(a: &CsrMatrix) -> CsrMatrix {
        let mut f = restrict_to_owned(a);
        for i in 0..f.num_rows() {
            let cols_i: Vec<usize> = f.row(i).0.iter().map(|&c| c as usize).collect();
            for &k in cols_i.iter().filter(|&&k| k < i) {
                let pivot = f.get(k, k);
                assert!(pivot != 0.0, "zero pivot at row {k}");
                let lik = f.get(i, k) / pivot;
                set(&mut f, i, k, lik);
                let row_k: Vec<(usize, f64)> = {
                    let (ck, vk) = f.row(k);
                    ck.iter()
                        .zip(vk)
                        .filter(|(&c, _)| c as usize > k)
                        .map(|(&c, &v)| (c as usize, v))
                        .collect()
                };
                for (j, akj) in row_k {
                    if cols_i.binary_search(&j).is_ok() {
                        let aij = f.get(i, j);
                        set(&mut f, i, j, aij - lik * akj);
                    }
                }
            }
        }
        f
    }

    /// Serial `L y = r` (unit diagonal) then `U z = y` over full rows.
    fn reference_ilu0_apply(f: &CsrMatrix, r: &[f64]) -> Vec<f64> {
        let n = f.num_rows();
        let mut z = vec![0.0; n];
        for i in 0..n {
            let (cols, vals) = f.row(i);
            let mut acc = r[i];
            for (&c, &v) in cols.iter().zip(vals) {
                let c = c as usize;
                if c < i {
                    acc -= v * z[c];
                }
            }
            z[i] = acc;
        }
        for i in (0..n).rev() {
            let (cols, vals) = f.row(i);
            let mut acc = z[i];
            for (&c, &v) in cols.iter().zip(vals) {
                let c = c as usize;
                if c > i {
                    acc -= v * z[c];
                }
            }
            z[i] = acc / f.get(i, i);
        }
        z
    }

    /// Serial `(D + L) y = r`, `y *= D`, `(D + U) z = y` over full rows.
    fn reference_ssor_apply(a: &CsrMatrix, r: &[f64]) -> Vec<f64> {
        let local = restrict_to_owned(a);
        let n = local.num_rows();
        let diag = local.diagonal();
        let mut z = vec![0.0; n];
        for i in 0..n {
            let (cols, vals) = local.row(i);
            let mut acc = r[i];
            for (&c, &v) in cols.iter().zip(vals) {
                let c = c as usize;
                if c < i {
                    acc -= v * z[c];
                }
            }
            z[i] = acc / diag[i];
        }
        for (zi, di) in z.iter_mut().zip(&diag) {
            *zi *= di;
        }
        for i in (0..n).rev() {
            let (cols, vals) = local.row(i);
            let mut acc = z[i];
            for (&c, &v) in cols.iter().zip(vals) {
                let c = c as usize;
                if c > i {
                    acc -= v * z[c];
                }
            }
            z[i] = acc / diag[i];
        }
        z
    }

    /// SplitMix64, for test inputs that are a pure function of a seed.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[-1, 1)`.
        fn value(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        }
    }

    /// Shape of one random local block.
    #[derive(Debug, Clone, Copy)]
    struct BlockCase {
        n: usize,
        ghosts: usize,
        half_bandwidth: usize,
        /// Mirrored pattern and values with a dominant diagonal (SPD), or
        /// both triangles drawn independently (nonsymmetric).
        symmetric: bool,
        pattern_seed: u64,
    }

    fn block_case() -> impl Strategy<Value = BlockCase> {
        (
            2usize..=64,
            0usize..=3,
            1usize..=6,
            any::<bool>(),
            any::<u64>(),
        )
            .prop_map(
                |(n, ghosts, half_bandwidth, symmetric, pattern_seed)| BlockCase {
                    n,
                    ghosts,
                    half_bandwidth,
                    symmetric,
                    pattern_seed,
                },
            )
    }

    /// A banded `n x (n + ghosts)` local block. Band and ghost entries are
    /// each kept with probability 5/8, so rows have uneven lengths; the
    /// pattern depends on `case` alone and the values on `value_seed`
    /// alone, so two seeds give two value sets on one sparsity. The
    /// diagonal dominates its row, which keeps every pivot away from zero.
    fn random_block(case: BlockCase, value_seed: u64) -> DistMatrix {
        let BlockCase {
            n,
            ghosts,
            half_bandwidth,
            symmetric,
            pattern_seed,
        } = case;
        let mut keep = Rng(pattern_seed);
        let mut vals = Rng(value_seed);
        let mut entries: Vec<(usize, usize, f64)> = Vec::new();
        for i in 0..n {
            for j in i + 1..(i + half_bandwidth + 1).min(n) {
                let (up, low) = (keep.next() % 8 < 5, keep.next() % 8 < 5);
                let (v_up, v_low) = (vals.value(), vals.value());
                if symmetric {
                    if up {
                        entries.push((i, j, v_up));
                        entries.push((j, i, v_up));
                    }
                } else {
                    if up {
                        entries.push((i, j, v_up));
                    }
                    if low {
                        entries.push((j, i, v_low));
                    }
                }
            }
            for g in n..n + ghosts {
                let v = vals.value();
                if keep.next() % 8 < 5 {
                    entries.push((i, g, v));
                }
            }
        }
        let mut row_abs = vec![0.0f64; n];
        for &(r, _, v) in &entries {
            row_abs[r] += v.abs();
        }
        let mut b = TripletBuilder::new(n, n + ghosts);
        for (i, off) in row_abs.iter().enumerate() {
            b.add(i, i, off + 1.0);
        }
        for (r, c, v) in entries {
            b.add(r, c, v);
        }
        DistMatrix::new(b.build(), ExchangePlan::empty())
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn rhs_for(n: usize, n_local: usize, seed: u64) -> DistVector {
        let mut rng = Rng(seed);
        let values: Vec<f64> = (0..n_local).map(|_| 3.0 * rng.value()).collect();
        DistVector::from_values(values, n)
    }

    /// `m.apply(r)`'s owned bits.
    fn apply_bits(
        m: &dyn Preconditioner,
        r: &DistVector,
        a: &DistMatrix,
        comm: &mut SimComm,
    ) -> Vec<u64> {
        let mut z = a.new_vector();
        m.apply(r, &mut z, comm);
        bits(z.owned())
    }

    /// The clock moved from `t0` by exactly the roofline time of `work`.
    fn assert_charged(comm: &SimComm, t0: f64, work: hetero_simmpi::Work) {
        let want = t0 + cfg().compute.time(work);
        assert_eq!(comm.clock().to_bits(), want.to_bits());
    }

    /// Everything the split must preserve, checked on one block against
    /// the oracle: factor bits, apply bits and every virtual-clock charge.
    fn assert_matches_oracle(a: &DistMatrix, comm: &mut SimComm) {
        let n = a.n_owned();
        let owned_nnz = a.local().iter().filter(|&(_, c, _)| c < n).count();
        let r = rhs_for(n, a.n_local(), 0xfeed);
        let t0 = comm.clock();
        let ilu = IluZero::new(a, comm);
        assert_charged(comm, t0, work_costs::ilu_factor(owned_nnz, n));
        let oracle = reference_ilu0(a.local());
        let (oracle_cols, oracle_vals): (Vec<usize>, Vec<f64>) =
            oracle.iter().map(|(_, c, v)| (c, v)).unzip();
        let s = &ilu.symbolic;
        let block_slots: Vec<usize> = (0..n).flat_map(|i| s.row(i)).collect();
        let cols: Vec<usize> = block_slots.iter().map(|&p| s.col_idx[p] as usize).collect();
        let factors: Vec<f64> = block_slots.iter().map(|&p| ilu.factors[p]).collect();
        assert_eq!(s.nnz(), owned_nnz);
        assert_eq!(cols, oracle_cols);
        assert_eq!(bits(&factors), bits(&oracle_vals), "ILU(0) factors");

        let t0 = comm.clock();
        let z = apply_bits(&ilu, &r, a, comm);
        assert_charged(comm, t0, work_costs::sweep(owned_nnz));
        assert_eq!(z, bits(&reference_ilu0_apply(&oracle, r.owned())), "ILU(0)");

        let t0 = comm.clock();
        let ssor = Ssor::new(a, comm);
        assert_charged(comm, t0, work_costs::copy(owned_nnz));
        let t0 = comm.clock();
        let z = apply_bits(&ssor, &r, a, comm);
        assert_charged(comm, t0, work_costs::sweep(2 * owned_nnz));
        assert_eq!(z, bits(&reference_ssor_apply(a.local(), r.owned())), "SSOR");
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn split_preconditioners_match_the_oracle_bitwise(case in block_case(), seed in any::<u64>()) {
            run_spmd(cfg(), move |comm| {
                assert_matches_oracle(&random_block(case, seed), comm);
            });
        }

        /// Two value sets refactorized through one symbolic analysis equal
        /// two one-shot builds, for the factors and for SSOR's values.
        #[test]
        fn one_symbolic_serves_many_value_sets(
            case in block_case(),
            seeds in (any::<u64>(), any::<u64>()),
        ) {
            run_spmd(cfg(), move |comm| {
                let first = random_block(case, seeds.0);
                let symbolic = Arc::new(OwnedBlockSymbolic::of_matrix(first.local()));
                for a in [first, random_block(case, seeds.1)] {
                    let one_shot = IluZero::new(&a, comm);
                    let t0 = comm.clock();
                    let shared = IluZero::with_symbolic(Arc::clone(&symbolic), &a, comm);
                    let charge = work_costs::ilu_factor(symbolic.nnz(), symbolic.num_rows());
                    assert_charged(comm, t0, charge);
                    assert_eq!(bits(&shared.factors), bits(&one_shot.factors));
                    let shared = Ssor::with_symbolic(Arc::clone(&symbolic), &a, comm);
                    assert_eq!(bits(&shared.values), bits(&Ssor::new(&a, comm).values));
                }
            });
        }
    }

    #[test]
    fn symbolic_from_the_pattern_equals_symbolic_from_the_matrix() {
        let case = BlockCase {
            n: 40,
            ghosts: 3,
            half_bandwidth: 4,
            symmetric: false,
            pattern_seed: 7,
        };
        let a = random_block(case, 1);
        let mut b = TripletBuilder::new(a.n_owned(), a.n_local());
        for (r, c, v) in a.local().iter() {
            b.add(r, c, v);
        }
        let from_pattern = OwnedBlockSymbolic::from_pattern(&b.symbolic());
        let from_matrix = OwnedBlockSymbolic::of_matrix(a.local());
        assert_eq!(from_pattern.row_ptr, from_matrix.row_ptr);
        assert_eq!(from_pattern.col_idx, from_matrix.col_idx);
        assert_eq!(from_pattern.row_end, from_matrix.row_end);
        assert_eq!(from_pattern.diag, from_matrix.diag);
        assert_eq!(from_pattern.nnz, from_matrix.nnz);
    }

    #[test]
    fn one_structure_is_shared_by_the_pattern_its_matrices_and_the_analysis() {
        let case = BlockCase {
            n: 30,
            ghosts: 2,
            half_bandwidth: 3,
            symmetric: false,
            pattern_seed: 5,
        };
        let a = random_block(case, 2);
        let mut b = TripletBuilder::new(a.n_owned(), a.n_local());
        for (r, c, v) in a.local().iter() {
            b.add(r, c, v);
        }
        let values: Vec<f64> = a.local().iter().map(|(_, _, v)| 2.0 * v).collect();
        let (pattern, first) = b.into_parts();
        let (row_ptr, col_idx) = pattern.structure();
        let analysis = OwnedBlockSymbolic::from_pattern(&pattern);
        let of_first = OwnedBlockSymbolic::of_matrix(&first);
        let numeric = [pattern.numeric(&values), pattern.numeric(&values)];
        let matrices = [&first, &numeric[0], &numeric[1]];
        for m in matrices {
            let (rp, ci) = m.structure();
            assert!(Arc::ptr_eq(rp, row_ptr) && Arc::ptr_eq(ci, col_idx));
        }
        for s in [&analysis, &of_first] {
            assert!(Arc::ptr_eq(&s.row_ptr, row_ptr) && Arc::ptr_eq(&s.col_idx, col_idx));
        }
        // One allocation: the pattern, both analyses and the three matrices.
        assert_eq!(Arc::strong_count(col_idx), 3 + matrices.len());
        assert_eq!(analysis.checked_values(&numeric[1]), numeric[1].values());
    }

    #[test]
    fn oracle_identity_holds_on_a_two_level_sweep() {
        // Rows couple only to the row half the block away, so each sweep's
        // dependencies form two levels of `n / 2` rows: the natural-order
        // sweeps must still reproduce the oracle's applies bit for bit.
        let n = 300;
        run_spmd(cfg(), move |comm| {
            let mut b = TripletBuilder::new(n, n + 1);
            for i in 0..n {
                let x = i as f64;
                b.add(i, i, 4.0 + (0.3 * x).sin());
                b.add(i, (i + n / 2) % n, (0.7 * x).cos());
                if i % 3 == 0 {
                    b.add(i, n, 0.5); // ghost coupling
                }
            }
            let a = DistMatrix::new(b.build(), ExchangePlan::empty());
            assert_matches_oracle(&a, comm);
        });
    }

    #[test]
    #[should_panic(expected = "sparsity differs from the symbolic analysis")]
    fn symbolic_rejects_a_matrix_of_different_sparsity() {
        // Same shape, same entry count per row except one extra coupling in
        // row 5: refactorizing through the stale analysis would misplace
        // every later value.
        let case = BlockCase {
            n: 12,
            ghosts: 1,
            half_bandwidth: 2,
            symmetric: true,
            pattern_seed: 3,
        };
        run_spmd(cfg(), move |comm| {
            let a = random_block(case, 9);
            let symbolic = Arc::new(OwnedBlockSymbolic::of_matrix(a.local()));
            let mut b = TripletBuilder::new(a.n_owned(), a.n_local());
            for (r, c, v) in a.local().iter() {
                b.add(r, c, v);
            }
            assert_eq!(a.local().get(5, 11), 0.0, "(5, 11) is outside the band");
            b.add(5, 11, 0.25);
            let other = DistMatrix::new(b.build(), ExchangePlan::empty());
            let _ = IluZero::with_symbolic(symbolic, &other, comm);
        });
    }
}
