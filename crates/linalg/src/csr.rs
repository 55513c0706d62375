//! Local compressed-sparse-row matrices and the triplet assembler.
//!
//! Time steppers rebuild the same matrix every step with new values, so
//! the assembler is split into a *symbolic* phase ([`TripletBuilder::symbolic`],
//! run once per mesh/partition: sorts the coordinates and freezes the
//! sparsity pattern plus a triplet-to-slot scatter) and a *numeric* phase
//! ([`SparsityPattern::numeric`]: scatters a fresh value array into the
//! frozen pattern without re-sorting). The numeric phase reproduces
//! [`TripletBuilder::build`] bitwise: the scatter accumulates duplicate
//! coordinates in exactly the sorted order `build` would sum them.

use std::sync::Arc;

/// Minimum row count before [`CsrMatrix::spmv`] fans out across the
/// intra-rank thread pool. Row results are independent of the split, so
/// this threshold affects speed only, never values.
const PAR_SPMV_MIN_ROWS: usize = 256;

/// Rows per parallel chunk in [`CsrMatrix::spmv`].
const SPMV_CHUNK_ROWS: usize = 512;

/// A local sparse matrix in CSR format. Rows are this rank's owned rows;
/// columns address the rank's local vector space (owned entries followed by
/// ghosts).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    num_rows: usize,
    num_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

/// Accumulates `(row, col, value)` triplets, summing duplicates — the
/// natural output of FEM element-loop assembly.
#[derive(Debug, Clone, Default)]
pub struct TripletBuilder {
    num_rows: usize,
    num_cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl TripletBuilder {
    /// Creates a builder for a `num_rows x num_cols` matrix.
    pub fn new(num_rows: usize, num_cols: usize) -> Self {
        TripletBuilder {
            num_rows,
            num_cols,
            entries: Vec::new(),
        }
    }

    /// Creates a builder with reserved capacity for `cap` triplets.
    pub fn with_capacity(num_rows: usize, num_cols: usize, cap: usize) -> Self {
        TripletBuilder {
            num_rows,
            num_cols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Adds `value` at `(row, col)`.
    ///
    /// # Panics
    /// Panics (in debug builds) if the coordinates are out of range.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(
            row < self.num_rows && col < self.num_cols,
            "({row}, {col}) out of range"
        );
        self.entries.push((row, col, value));
    }

    /// Number of raw (pre-merge) triplets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no triplets have been added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Builds the CSR matrix, summing duplicate coordinates.
    pub fn build(mut self) -> CsrMatrix {
        self.entries.sort_unstable_by_key(|a| (a.0, a.1));
        let mut row_ptr = Vec::with_capacity(self.num_rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        let mut current_row = 0usize;
        for (r, c, v) in self.entries {
            while current_row < r {
                row_ptr.push(col_idx.len());
                current_row += 1;
            }
            if let (Some(&last_c), true) = (col_idx.last(), row_ptr.len() == r + 1) {
                if last_c == c && col_idx.len() > *row_ptr.last().unwrap() {
                    *values.last_mut().unwrap() += v;
                    continue;
                }
            }
            col_idx.push(c);
            values.push(v);
        }
        while current_row < self.num_rows {
            row_ptr.push(col_idx.len());
            current_row += 1;
        }
        CsrMatrix {
            num_rows: self.num_rows,
            num_cols: self.num_cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Freezes this builder's coordinate sequence into a reusable
    /// [`SparsityPattern`]. The builder's values are ignored; pair the
    /// pattern with [`SparsityPattern::numeric`] and a value array in the
    /// same triplet order to obtain the matrix `build` would have produced.
    pub fn symbolic(&self) -> SparsityPattern {
        // Tag each coordinate with its insertion index, then sort with the
        // same key `build` uses. Comparison-based sorting permutes equal
        // keys as a function of the key sequence alone, so this permutation
        // is exactly the one `build` applies to the (r, c, v) triplets.
        let mut tagged: Vec<(usize, usize, usize)> = self
            .entries
            .iter()
            .enumerate()
            .map(|(k, &(r, c, _))| (r, c, k))
            .collect();
        tagged.sort_unstable_by_key(|a| (a.0, a.1));

        let mut row_ptr = Vec::with_capacity(self.num_rows + 1);
        let mut col_idx = Vec::new();
        let mut perm = Vec::with_capacity(tagged.len());
        let mut slot = Vec::with_capacity(tagged.len());
        row_ptr.push(0);
        let mut current_row = 0usize;
        for (r, c, k) in tagged {
            while current_row < r {
                row_ptr.push(col_idx.len());
                current_row += 1;
            }
            perm.push(k);
            if let (Some(&last_c), true) = (col_idx.last(), row_ptr.len() == r + 1) {
                if last_c == c && col_idx.len() > *row_ptr.last().unwrap() {
                    slot.push(col_idx.len() - 1);
                    continue;
                }
            }
            slot.push(col_idx.len());
            col_idx.push(c);
        }
        while current_row < self.num_rows {
            row_ptr.push(col_idx.len());
            current_row += 1;
        }
        SparsityPattern {
            num_rows: self.num_rows,
            num_cols: self.num_cols,
            row_ptr: row_ptr.into(),
            col_idx: col_idx.into(),
            perm,
            slot,
        }
    }
}

/// A frozen sparsity pattern plus the triplet-to-slot scatter, produced by
/// [`TripletBuilder::symbolic`]. Reusing it across time steps skips the
/// O(nnz log nnz) sort that dominates from-scratch matrix construction.
#[derive(Debug, Clone)]
pub struct SparsityPattern {
    num_rows: usize,
    num_cols: usize,
    /// `Arc`'d so the preconditioners' symbolic analysis of this pattern
    /// ([`crate::precond::OwnedBlockSymbolic`]) shares the arrays instead
    /// of copying them.
    row_ptr: Arc<[usize]>,
    col_idx: Arc<[usize]>,
    /// Sorted position -> original triplet index.
    perm: Vec<usize>,
    /// Sorted position -> CSR slot (nondecreasing; duplicates share slots).
    slot: Vec<usize>,
}

impl SparsityPattern {
    /// Rows of matrices built from this pattern.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Columns of matrices built from this pattern.
    #[inline]
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Stored entries of matrices built from this pattern.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Number of triplets the pattern was built from (the length
    /// [`SparsityPattern::numeric`] expects).
    #[inline]
    pub fn num_triplets(&self) -> usize {
        self.perm.len()
    }

    /// The shared CSR structure arrays `(row_ptr, col_idx)`.
    #[inline]
    pub(crate) fn structure(&self) -> (&Arc<[usize]>, &Arc<[usize]>) {
        (&self.row_ptr, &self.col_idx)
    }

    /// Numeric phase: scatters `triplet_values` (one value per original
    /// triplet, in insertion order) into the frozen pattern. Bitwise
    /// identical to rebuilding via [`TripletBuilder::build`] with the same
    /// coordinates and values.
    ///
    /// # Panics
    /// Panics if `triplet_values.len()` differs from the triplet count the
    /// pattern was built from.
    pub fn numeric(&self, triplet_values: &[f64]) -> CsrMatrix {
        let mut values = vec![0.0; self.col_idx.len()];
        self.numeric_into(triplet_values, &mut values);
        CsrMatrix {
            num_rows: self.num_rows,
            num_cols: self.num_cols,
            row_ptr: self.row_ptr.to_vec(),
            col_idx: self.col_idx.to_vec(),
            values,
        }
    }

    /// The allocation-free numeric phase: scatters `triplet_values` into an
    /// existing value buffer of a matrix previously built from this pattern
    /// (obtained via [`CsrMatrix::values_mut`]). The scatter runs in the
    /// same sorted order as [`Self::numeric`], so the refreshed values are
    /// bitwise identical to a full rebuild — without reallocating the value
    /// array or recloning the pattern.
    ///
    /// # Panics
    /// Panics if `triplet_values.len()` differs from the triplet count the
    /// pattern was built from, or `values.len()` from the pattern's nnz.
    pub fn numeric_into(&self, triplet_values: &[f64], values: &mut [f64]) {
        assert_eq!(
            triplet_values.len(),
            self.perm.len(),
            "value array does not match the pattern's triplet count"
        );
        assert_eq!(
            values.len(),
            self.col_idx.len(),
            "destination does not match the pattern's stored-entry count"
        );
        values.fill(0.0);
        for (&k, &s) in self.perm.iter().zip(&self.slot) {
            values[s] += triplet_values[k];
        }
    }
}

impl CsrMatrix {
    /// An all-zero matrix with no stored entries.
    pub fn zero(num_rows: usize, num_cols: usize) -> Self {
        CsrMatrix {
            num_rows,
            num_cols,
            row_ptr: vec![0; num_rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    #[inline]
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The CSR structure arrays `(row_ptr, col_idx)`.
    #[inline]
    pub(crate) fn structure(&self) -> (&[usize], &[usize]) {
        (&self.row_ptr, &self.col_idx)
    }

    /// All stored values, in row-major slot order.
    #[inline]
    pub(crate) fn values(&self) -> &[f64] {
        &self.values
    }

    /// The `(columns, values)` of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// All stored values, mutable, in row-major slot order (the column
    /// structure is fixed). This is the in-place refresh hook for
    /// [`SparsityPattern::numeric_into`]: time steppers overwrite the
    /// values of a retained matrix instead of allocating a new one.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Mutable values of row `r` (column structure is fixed).
    #[inline]
    pub fn row_values_mut(&mut self, r: usize) -> (&[usize], &mut [f64]) {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        (&self.col_idx[lo..hi], &mut self.values[lo..hi])
    }

    /// Entry `(r, c)`, or 0 if not stored.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (cols, vals) = self.row(r);
        match cols.binary_search(&c) {
            Ok(i) => vals[i],
            Err(_) => 0.0,
        }
    }

    /// `y = A * x`. `x` must have `num_cols` entries, `y` gets `num_rows`.
    ///
    /// Large matrices fan the row loop out across the intra-rank thread
    /// pool; each row's dot product is computed identically either way, so
    /// the result is bitwise independent of the thread count.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.num_cols);
        assert_eq!(y.len(), self.num_rows);
        if self.num_rows < PAR_SPMV_MIN_ROWS || rayon::current_num_threads() <= 1 {
            for (r, out) in y.iter_mut().enumerate() {
                *out = self.row_dot(r, x);
            }
            return;
        }
        rayon::fixed::for_each_chunk_mut(y, SPMV_CHUNK_ROWS, |_chunk, start, rows| {
            for (j, out) in rows.iter_mut().enumerate() {
                *out = self.row_dot(start + j, x);
            }
        });
    }

    /// `y[r] = (A x)[r]` for each listed row, leaving other entries of `y`
    /// untouched. Each listed row's dot product is computed exactly as
    /// [`Self::spmv`] computes it, so writing two disjoint row subsets
    /// (e.g. interior then boundary) reproduces the full product bitwise.
    pub fn spmv_rows(&self, rows: &[usize], x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.num_cols);
        assert_eq!(y.len(), self.num_rows);
        if rows.len() < PAR_SPMV_MIN_ROWS || rayon::current_num_threads() <= 1 {
            for &r in rows {
                y[r] = self.row_dot(r, x);
            }
            return;
        }
        // Scattered output slots prevent handing out disjoint &mut chunks of
        // `y`; compute per-row values in task order, then scatter serially.
        let vals = rayon::fixed::map_tasks(rows.len(), |i| self.row_dot(rows[i], x));
        for (&r, v) in rows.iter().zip(vals) {
            y[r] = v;
        }
    }

    /// Dot product of row `r` with `x`, iterating the row's columns and
    /// values as one zipped slice pair.
    #[inline]
    fn row_dot(&self, r: usize, x: &[f64]) -> f64 {
        let (cols, vals) = self.row(r);
        let mut acc = 0.0;
        for (&c, &v) in cols.iter().zip(vals.iter()) {
            acc += v * x[c];
        }
        acc
    }

    /// The diagonal entries (0 where absent). Meaningful for square local
    /// blocks (`num_rows` leading columns are the owned ones).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.num_rows).map(|r| self.get(r, r)).collect()
    }

    /// Scales every stored value by `s`.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.values {
            *v *= s;
        }
    }

    /// Zeroes a row and sets its diagonal to `diag` — the standard strong
    /// Dirichlet row replacement.
    ///
    /// # Panics
    /// Panics if the row has no stored diagonal entry.
    pub fn set_dirichlet_row(&mut self, r: usize, diag: f64) {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        let mut found = false;
        for i in lo..hi {
            if self.col_idx[i] == r {
                self.values[i] = diag;
                found = true;
            } else {
                self.values[i] = 0.0;
            }
        }
        assert!(found, "row {r} has no stored diagonal");
    }

    /// Iterates over all stored `(row, col, value)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.num_rows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals).map(move |(&c, &v)| (r, c, v))
        })
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [ 2 -1  0 ]
        // [-1  2 -1 ]
        // [ 0 -1  2 ]
        let mut b = TripletBuilder::new(3, 3);
        for i in 0..3usize {
            b.add(i, i, 2.0);
            if i > 0 {
                b.add(i, i - 1, -1.0);
            }
            if i < 2 {
                b.add(i, i + 1, -1.0);
            }
        }
        b.build()
    }

    #[test]
    fn build_and_query() {
        let a = small();
        assert_eq!(a.num_rows(), 3);
        assert_eq!(a.nnz(), 7);
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(0, 1), -1.0);
        assert_eq!(a.get(0, 2), 0.0);
        assert_eq!(a.diagonal(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 0, 1.0);
        b.add(0, 0, 2.5);
        b.add(1, 1, 1.0);
        b.add(0, 1, -1.0);
        b.add(0, 1, -1.0);
        let a = b.build();
        assert_eq!(a.get(0, 0), 3.5);
        assert_eq!(a.get(0, 1), -2.0);
        assert_eq!(a.nnz(), 3);
    }

    #[test]
    fn empty_rows_are_fine() {
        let mut b = TripletBuilder::new(4, 4);
        b.add(0, 0, 1.0);
        b.add(3, 3, 1.0);
        let a = b.build();
        assert_eq!(a.row(1).0.len(), 0);
        assert_eq!(a.row(2).0.len(), 0);
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn spmv_tridiagonal() {
        let a = small();
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        a.spmv(&x, &mut y);
        assert_eq!(y, vec![0.0, 0.0, 4.0]);
    }

    #[test]
    fn spmv_rectangular() {
        // 2x3: rows over owned+ghost columns.
        let mut b = TripletBuilder::new(2, 3);
        b.add(0, 0, 1.0);
        b.add(0, 2, 2.0);
        b.add(1, 1, 3.0);
        let a = b.build();
        let mut y = vec![0.0; 2];
        a.spmv(&[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![3.0, 3.0]);
    }

    #[test]
    fn dirichlet_row_replacement() {
        let mut a = small();
        a.set_dirichlet_row(1, 1.0);
        assert_eq!(a.get(1, 0), 0.0);
        assert_eq!(a.get(1, 1), 1.0);
        assert_eq!(a.get(1, 2), 0.0);
        // Other rows untouched.
        assert_eq!(a.get(0, 0), 2.0);
    }

    #[test]
    fn iter_visits_all_entries() {
        let a = small();
        let sum: f64 = a.iter().map(|(_, _, v)| v).sum();
        assert_eq!(sum, 2.0); // 3*2 - 4*1
        assert_eq!(a.iter().count(), 7);
    }

    #[test]
    fn frobenius() {
        let a = small();
        assert!((a.frobenius_norm() - (3.0 * 4.0 + 4.0 * 1.0f64).sqrt()).abs() < 1e-14);
    }

    #[test]
    fn zero_matrix() {
        let a = CsrMatrix::zero(3, 3);
        assert_eq!(a.nnz(), 0);
        let mut y = vec![1.0; 3];
        a.spmv(&[1.0; 3], &mut y);
        assert_eq!(y, vec![0.0; 3]);
    }

    #[test]
    fn scale_matrix() {
        let mut a = small();
        a.scale(2.0);
        assert_eq!(a.get(0, 0), 4.0);
        assert_eq!(a.get(1, 0), -2.0);
    }

    /// A messy triplet stream: shuffled insertion order, duplicates, empty
    /// rows — the numeric phase must match `build` exactly on all of it.
    fn messy_triplets(n: usize, seed: u64) -> Vec<(usize, usize, f64)> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        (0..6 * n)
            .map(|_| {
                let r = next() as usize % n;
                let c = next() as usize % n;
                let v = (next() as f64 / 2f64.powi(31)) - 1.0;
                (r, c, v)
            })
            .collect()
    }

    #[test]
    fn numeric_phase_reproduces_build_bitwise() {
        for seed in [1, 7, 42] {
            let ts = messy_triplets(17, seed);
            let mut b = TripletBuilder::new(17, 17);
            for &(r, c, v) in &ts {
                b.add(r, c, v);
            }
            let pattern = b.symbolic();
            let values: Vec<f64> = ts.iter().map(|t| t.2).collect();
            let from_pattern = pattern.numeric(&values);
            let from_scratch = b.build();
            assert_eq!(from_pattern, from_scratch);
        }
    }

    #[test]
    fn pattern_is_reusable_with_fresh_values() {
        let ts = messy_triplets(9, 3);
        let mut b = TripletBuilder::new(9, 9);
        for &(r, c, v) in &ts {
            b.add(r, c, v);
        }
        let pattern = b.symbolic();
        assert_eq!(pattern.num_triplets(), ts.len());
        for scale in [1.0, -0.5, 3.25] {
            let values: Vec<f64> = ts.iter().map(|t| t.2 * scale).collect();
            let mut b2 = TripletBuilder::new(9, 9);
            for &(r, c, v) in &ts {
                b2.add(r, c, v * scale);
            }
            assert_eq!(pattern.numeric(&values), b2.build());
        }
    }

    #[test]
    #[should_panic(expected = "triplet count")]
    fn numeric_rejects_wrong_value_count() {
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 0, 1.0);
        b.symbolic().numeric(&[1.0, 2.0]);
    }

    #[test]
    fn spmv_is_identical_serial_and_parallel() {
        // Big enough to clear the parallel threshold.
        let n = 40usize;
        let mut b = TripletBuilder::new(n * n, n * n);
        for i in 0..n * n {
            b.add(i, i, 4.0);
            if i >= n {
                b.add(i, i - n, -1.0);
            }
            if i + n < n * n {
                b.add(i, i + n, -1.0);
            }
        }
        let a = b.build();
        let x: Vec<f64> = (0..n * n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut serial = vec![0.0; n * n];
        let mut parallel = vec![0.0; n * n];
        rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| {
                a.spmv(&x, &mut serial);
            });
        rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap()
            .install(|| {
                a.spmv(&x, &mut parallel);
            });
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.to_bits(), p.to_bits());
        }
    }
}
