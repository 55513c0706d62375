//! Local compressed-sparse-row matrices and the triplet assembler.
//!
//! Time steppers rebuild the same matrix every step with new values, so
//! the assembler has one *symbolic* step, run once per mesh/partition:
//! [`TripletBuilder::into_parts`] sorts the coordinates once and returns
//! both the frozen [`SparsityPattern`] (structure plus a triplet-to-slot
//! scatter) and the first matrix. [`TripletBuilder::build`] and
//! [`TripletBuilder::symbolic`] are the two halves of that one call. The
//! *numeric* phase ([`SparsityPattern::numeric`]) scatters a fresh value
//! array into the frozen pattern without re-sorting; it accumulates
//! duplicate coordinates in exactly the sorted order `build` sums them.
//!
//! The sort element is a 16-byte `(row * num_cols + col, index)` pair
//! ordered by the key alone. The key orders like the `(row, col)` tuple,
//! and `sort_unstable` permutes equal keys as a function of the comparison
//! outcomes only, so the permutation is the one a `(row, col)` tuple sort
//! gives (`tests::packed_sort_permutation_is_pinned` holds it).
//!
//! A matrix's structure never changes after the symbolic step, so it is
//! stored once per sparsity pattern: `row_ptr` and `col_idx` are
//! `Arc`-shared by the pattern, every matrix built from it and the
//! preconditioners' analysis of it ([`crate::precond::OwnedBlockSymbolic`]),
//! and a matrix owns only its values. Column indices are `u32` (a local
//! block has far fewer than 2³² columns; [`TripletBuilder::with_capacity`]
//! checks it), so a stored entry costs 8 bytes of value plus 4 of column.

use std::sync::Arc;

/// A local sparse matrix in CSR format. Rows are this rank's owned rows;
/// columns address the rank's local vector space (owned entries followed by
/// ghosts).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    num_rows: usize,
    num_cols: usize,
    /// Shared with the [`SparsityPattern`] the matrix was built from.
    row_ptr: Arc<[usize]>,
    col_idx: Arc<[u32]>,
    values: Vec<f64>,
}

/// Accumulates `(row, col, value)` triplets, summing duplicates — the
/// natural output of FEM element-loop assembly.
#[derive(Debug, Clone, Default)]
pub struct TripletBuilder {
    num_rows: usize,
    num_cols: usize,
    /// `(row * num_cols + col, insertion index)` per triplet: the sort
    /// element of [`Self::into_parts`].
    keys: Vec<(u64, u32)>,
    /// Values in insertion order.
    values: Vec<f64>,
}

impl TripletBuilder {
    /// Creates a builder for a `num_rows x num_cols` matrix.
    ///
    /// # Panics
    /// Panics if a column index would not fit a `u32`, or if
    /// `num_rows * num_cols` overflows a `u64` coordinate key.
    pub fn new(num_rows: usize, num_cols: usize) -> Self {
        Self::with_capacity(num_rows, num_cols, 0)
    }

    /// Creates a builder with reserved capacity for `cap` triplets.
    ///
    /// # Panics
    /// Panics if a column index would not fit a `u32`, or if
    /// `num_rows * num_cols` overflows a `u64` coordinate key.
    pub fn with_capacity(num_rows: usize, num_cols: usize, cap: usize) -> Self {
        assert!(
            num_cols as u64 <= u64::from(u32::MAX) + 1,
            "{num_cols} columns overflow the u32 column indices"
        );
        assert!(
            (num_rows as u64).checked_mul(num_cols as u64).is_some(),
            "{num_rows} x {num_cols} coordinates overflow a u64 key"
        );
        TripletBuilder {
            num_rows,
            num_cols,
            keys: Vec::with_capacity(cap),
            values: Vec::with_capacity(cap),
        }
    }

    /// Reserves room for exactly `additional` more triplets.
    pub fn reserve(&mut self, additional: usize) {
        self.keys.reserve_exact(additional);
        self.values.reserve_exact(additional);
    }

    /// Adds `value` at `(row, col)`.
    ///
    /// # Panics
    /// Panics if the coordinates are out of range, or if this is triplet
    /// 2³² (the scatter indices are `u32`).
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.num_rows && col < self.num_cols,
            "({row}, {col}) out of range"
        );
        let key = row as u64 * self.num_cols as u64 + col as u64;
        let index = u32::try_from(self.values.len())
            .expect("triplet count exceeds the u32 scatter indices");
        self.keys.push((key, index));
        self.values.push(value);
    }

    /// Number of raw (pre-merge) triplets.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no triplets have been added.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Builds the CSR matrix, summing duplicate coordinates.
    pub fn build(self) -> CsrMatrix {
        self.into_parts().1
    }

    /// Freezes this builder's coordinate sequence into a reusable
    /// [`SparsityPattern`]. The builder's values are ignored; pair the
    /// pattern with [`SparsityPattern::numeric`] and a value array in the
    /// same triplet order to obtain the matrix `build` would have produced.
    pub fn symbolic(&self) -> SparsityPattern {
        self.clone().into_parts().0
    }

    /// Sorts the coordinates once and merges duplicates into both the
    /// frozen pattern and the matrix of this builder's values.
    ///
    /// A stored value is its coordinate's first triplet in sorted order,
    /// plus each later duplicate in turn: the first assigns rather than
    /// adding to `0.0`, so a lone `-0.0` stays `-0.0`.
    ///
    /// The matrix shares the pattern's `row_ptr` and `col_idx`.
    pub fn into_parts(mut self) -> (SparsityPattern, CsrMatrix) {
        self.keys.sort_unstable_by_key(|&(key, _)| key);

        let width = self.num_cols as u64;
        // Exact capacities: the stored values stay with the first matrix.
        let dups = self.keys.windows(2).filter(|w| w[0].0 == w[1].0).count();
        let nnz = self.keys.len() - dups;
        let mut row_ptr = Vec::with_capacity(self.num_rows + 1);
        let mut col_idx: Vec<u32> = Vec::with_capacity(nnz);
        let mut stored: Vec<f64> = Vec::with_capacity(nnz);
        let mut perm = Vec::with_capacity(self.keys.len());
        let mut slot = Vec::with_capacity(self.keys.len());
        row_ptr.push(0);
        // Keys of the current row are `row_start..row_start + width`.
        let mut row_start = 0u64;
        let mut last_key = None;
        for &(key, k) in &self.keys {
            while key >= row_start + width {
                row_ptr.push(col_idx.len());
                row_start += width;
            }
            let v = self.values[k as usize];
            if last_key == Some(key) {
                *stored.last_mut().expect("a duplicate follows its first") += v;
            } else {
                // `with_capacity` checked that every column fits a u32.
                col_idx.push((key - row_start) as u32);
                stored.push(v);
                last_key = Some(key);
            }
            perm.push(k);
            // At most one slot per triplet, and triplet indices fit a u32.
            slot.push((col_idx.len() - 1) as u32);
        }
        while row_ptr.len() <= self.num_rows {
            row_ptr.push(col_idx.len());
        }
        let pattern = SparsityPattern {
            num_rows: self.num_rows,
            num_cols: self.num_cols,
            row_ptr: row_ptr.into(),
            col_idx: col_idx.into(),
            perm,
            slot,
        };
        let matrix = pattern.with_values(stored);
        (pattern, matrix)
    }
}

/// A frozen sparsity pattern plus the triplet-to-slot scatter, produced by
/// [`TripletBuilder::into_parts`]. Reusing it across time steps skips the
/// O(nnz log nnz) sort that dominates from-scratch matrix construction.
#[derive(Debug, Clone)]
pub struct SparsityPattern {
    num_rows: usize,
    num_cols: usize,
    /// `Arc`'d so every matrix built from this pattern and the
    /// preconditioners' symbolic analysis of it
    /// ([`crate::precond::OwnedBlockSymbolic`]) share the arrays instead
    /// of copying them.
    row_ptr: Arc<[usize]>,
    col_idx: Arc<[u32]>,
    /// Sorted position -> original triplet index.
    perm: Vec<u32>,
    /// Sorted position -> CSR slot (nondecreasing; duplicates share slots).
    slot: Vec<u32>,
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
    pub(crate) fn structure(&self) -> (&Arc<[usize]>, &Arc<[u32]>) {
        (&self.row_ptr, &self.col_idx)
    }

    /// A matrix of this pattern holding `values` (one per stored entry),
    /// sharing the pattern's structure arrays.
    fn with_values(&self, values: Vec<f64>) -> CsrMatrix {
        debug_assert_eq!(values.len(), self.col_idx.len());
        CsrMatrix {
            num_rows: self.num_rows,
            num_cols: self.num_cols,
            row_ptr: Arc::clone(&self.row_ptr),
            col_idx: Arc::clone(&self.col_idx),
            values,
        }
    }

    /// Numeric phase: scatters `triplet_values` (one value per original
    /// triplet, in insertion order) into the frozen pattern. The matrix
    /// shares the pattern's `row_ptr` and `col_idx` and allocates only its
    /// value array. Bitwise identical to rebuilding via
    /// [`TripletBuilder::build`] with the same coordinates and values:
    /// each entry is assigned its first contribution in sorted order and
    /// then adds the rest, so a lone `-0.0` stays `-0.0`.
    ///
    /// # Panics
    /// Panics if `triplet_values.len()` differs from the triplet count the
    /// pattern was built from.
    pub fn numeric(&self, triplet_values: &[f64]) -> CsrMatrix {
        let mut values = vec![0.0; self.col_idx.len()];
        self.numeric_into(triplet_values, &mut values);
        self.with_values(values)
    }

    /// The allocation-free numeric phase: scatters `triplet_values` into an
    /// existing value buffer of a matrix previously built from this pattern
    /// (obtained via [`CsrMatrix::values_mut`]). The scatter runs in the
    /// same sorted order as [`Self::numeric`], so the refreshed values are
    /// bitwise identical to a full rebuild — without reallocating the value
    /// array.
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
        // `-0.0` is the exact identity of addition (`-0.0 + x` is `x` bit
        // for bit, `±0.0` included), so adding every contribution to it
        // assigns each slot its first one, as `into_parts` does.
        values.fill(-0.0);
        for (&k, &s) in self.perm.iter().zip(&self.slot) {
            values[s as usize] += triplet_values[k as usize];
        }
    }
}

impl CsrMatrix {
    /// An all-zero matrix with no stored entries.
    pub fn zero(num_rows: usize, num_cols: usize) -> Self {
        CsrMatrix {
            num_rows,
            num_cols,
            row_ptr: vec![0; num_rows + 1].into(),
            col_idx: Arc::new([]),
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

    /// The CSR structure arrays `(row_ptr, col_idx)`, shared with the
    /// pattern the matrix was built from.
    #[inline]
    pub(crate) fn structure(&self) -> (&Arc<[usize]>, &Arc<[u32]>) {
        (&self.row_ptr, &self.col_idx)
    }

    /// All stored values, in row-major slot order.
    #[inline]
    pub(crate) fn values(&self) -> &[f64] {
        &self.values
    }

    /// The `(columns, values)` of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
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
    pub fn row_values_mut(&mut self, r: usize) -> (&[u32], &mut [f64]) {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        (&self.col_idx[lo..hi], &mut self.values[lo..hi])
    }

    /// Entry `(r, c)`, or 0 if not stored.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (cols, vals) = self.row(r);
        match cols.binary_search_by(|&col| (col as usize).cmp(&c)) {
            Ok(i) => vals[i],
            Err(_) => 0.0,
        }
    }

    /// `y = A * x`. `x` must have `num_cols` entries, `y` gets `num_rows`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.num_cols);
        assert_eq!(y.len(), self.num_rows);
        for (r, out) in y.iter_mut().enumerate() {
            *out = self.row_dot(r, x);
        }
    }

    /// `y[r] = (A x)[r]` for each listed row, leaving other entries of `y`
    /// untouched. Each listed row's dot product is computed exactly as
    /// [`Self::spmv`] computes it, so writing two disjoint row subsets
    /// (e.g. interior then boundary) reproduces the full product bitwise.
    pub fn spmv_rows(&self, rows: &[usize], x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.num_cols);
        assert_eq!(y.len(), self.num_rows);
        for &r in rows {
            y[r] = self.row_dot(r, x);
        }
    }

    /// Dot product of row `r` with `x`, iterating the row's columns and
    /// values as one zipped slice pair.
    #[inline]
    fn row_dot(&self, r: usize, x: &[f64]) -> f64 {
        let (cols, vals) = self.row(r);
        let mut acc = 0.0;
        for (&c, &v) in cols.iter().zip(vals.iter()) {
            acc += v * x[c as usize];
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
            if self.col_idx[i] as usize == r {
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
            cols.iter()
                .zip(vals)
                .map(move |(&c, &v)| (r, c as usize, v))
        })
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
    #[should_panic(expected = "out of range")]
    fn add_rejects_a_row_past_the_end() {
        let mut b = TripletBuilder::new(2, 3);
        b.add(2, 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_rejects_a_column_past_the_end() {
        // (0, 3) would alias (1, 0) in the packed key.
        let mut b = TripletBuilder::new(2, 3);
        b.add(0, 3, 1.0);
    }

    #[test]
    #[should_panic(expected = "overflow the u32 column indices")]
    fn a_column_past_u32_max_is_rejected() {
        // Column 2^32 would not fit the stored u32 index.
        TripletBuilder::new(1, (1usize << 32) + 1);
    }

    #[test]
    fn the_last_u32_column_is_accepted() {
        let b = TripletBuilder::new(1, 1usize << 32);
        assert!(b.is_empty());
    }

    /// `build` as it was before the packed sort: `(row, col, value)`
    /// triplets sorted by the `(row, col)` tuple and merged in one walk.
    fn tuple_sort_build(
        num_rows: usize,
        num_cols: usize,
        mut entries: Vec<(usize, usize, f64)>,
    ) -> CsrMatrix {
        entries.sort_unstable_by_key(|a| (a.0, a.1));
        let mut row_ptr = vec![0];
        let mut col_idx: Vec<u32> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        for (r, c, v) in entries {
            while row_ptr.len() <= r {
                row_ptr.push(col_idx.len());
            }
            let row_has_entries = col_idx.len() > *row_ptr.last().unwrap();
            if row_has_entries && col_idx.last() == Some(&(c as u32)) {
                *values.last_mut().unwrap() += v;
            } else {
                col_idx.push(c as u32);
                values.push(v);
            }
        }
        while row_ptr.len() <= num_rows {
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            num_rows,
            num_cols,
            row_ptr: row_ptr.into(),
            col_idx: col_idx.into(),
            values,
        }
    }

    #[test]
    fn merged_build_matches_the_tuple_sort_build_bitwise() {
        // Eight-way duplicates with signed zeros among them: a lone -0.0
        // must stay -0.0, and every sum must associate in sorted order.
        let (rows, cols) = (13, 11);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut ts = Vec::new();
        for _ in 0..64 {
            let (r, c) = (next() as usize % rows, next() as usize % cols);
            for _ in 0..8 {
                let v = match next() % 4 {
                    0 => -0.0,
                    1 => 0.0,
                    _ => (next() as f64 / 2f64.powi(29)) - 2.0,
                };
                ts.push((r, c, v));
            }
        }
        ts.extend([(0, 0, -0.0), (12, 10, -0.0), (12, 10, -0.0), (5, 5, -0.0)]);
        let mut b = TripletBuilder::new(rows, cols);
        for &(r, c, v) in &ts {
            b.add(r, c, v);
        }
        let oracle = tuple_sort_build(rows, cols, ts);
        let (_, merged) = b.clone().into_parts();
        let built = b.build();
        for m in [&merged, &built] {
            assert_eq!(m.row_ptr, oracle.row_ptr);
            assert_eq!(m.col_idx, oracle.col_idx);
            let bits = |x: &CsrMatrix| x.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(m), bits(&oracle));
        }
        assert_eq!(merged.get(0, 0).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn numeric_keeps_signed_zeros_like_build() {
        // Lone -0.0, duplicated -0.0, -0.0 then +0.0 (and the reverse), and
        // a nonzero among zeros.
        let ts = [
            (0, 0, -0.0),
            (1, 1, -0.0),
            (1, 1, -0.0),
            (2, 0, -0.0),
            (2, 0, 0.0),
            (2, 2, 0.0),
            (2, 2, -0.0),
            (0, 2, -0.0),
            (0, 2, 1.5),
            (0, 2, -0.0),
        ];
        let mut b = TripletBuilder::new(3, 3);
        for &(r, c, v) in &ts {
            b.add(r, c, v);
        }
        let pattern = b.symbolic();
        let values: Vec<f64> = ts.iter().map(|t| t.2).collect();
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let built = b.build();
        assert_eq!(built.get(0, 0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(built.get(1, 1).to_bits(), (-0.0f64).to_bits());
        let numeric = pattern.numeric(&values);
        assert_eq!(bits(&numeric.values), bits(&built.values));
        let mut into = vec![f64::NAN; pattern.nnz()];
        pattern.numeric_into(&values, &mut into);
        assert_eq!(bits(&into), bits(&built.values));
    }

    /// Coordinates of the cell-major triplet sequence of a Q2 mass
    /// structure on an `n^3`-cell cube, one rank: each cell's 27 nodes in
    /// tensor order, then every (row node, column node) pair.
    fn q2_mass_coords(n: usize) -> Vec<(usize, usize)> {
        let nn = 2 * n + 1;
        let mut out = Vec::with_capacity(n * n * n * 27 * 27);
        for ck in 0..n {
            for cj in 0..n {
                for ci in 0..n {
                    let mut dofs = Vec::with_capacity(27);
                    for dc in 0..=2 {
                        for db in 0..=2 {
                            for da in 0..=2 {
                                let (i, j, k) = (2 * ci + da, 2 * cj + db, 2 * ck + dc);
                                dofs.push(i + nn * (j + nn * k));
                            }
                        }
                    }
                    for &r in &dofs {
                        for &c in &dofs {
                            out.push((r, c));
                        }
                    }
                }
            }
        }
        out
    }

    /// FNV-1a over 64-bit words.
    fn digest(words: impl Iterator<Item = u64>) -> u64 {
        words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn packed_sort_permutation_is_pinned() {
        // Pinned from the (row, col) tuple sort that preceded the packed
        // key. Every golden report digest depends on this permutation: it
        // fixes the order in which duplicate contributions are summed.
        let nn = 11;
        let mut b = TripletBuilder::new(nn * nn * nn, nn * nn * nn);
        for (r, c) in q2_mass_coords(5) {
            b.add(r, c, 1.0);
        }
        let p = b.symbolic();
        assert_eq!((p.num_triplets(), p.nnz()), (91_125, 68_921));
        let perm = digest(p.perm.iter().map(|&k| u64::from(k)));
        let slot = digest(p.slot.iter().map(|&s| u64::from(s)));
        assert_eq!(
            (perm, slot),
            (0x9363_75b6_d8fa_9823, 0x2857_f577_a8f9_bac7),
            "sort_unstable now orders equal keys differently: the duplicate \
             summation order, and with it every golden digest, has moved"
        );
    }

    mod props {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The packed `(key, index)` sort permutes the triplets exactly
            /// as a `(row, col)` tuple sort of `(row, col, index)` does, on
            /// duplicate-heavy sequences long enough to leave the small-sort
            /// path.
            #[test]
            fn packed_sort_permutation_equals_tuple_sort(
                rows in 1usize..9,
                cols in 1usize..9,
                seq in prop::collection::vec((0usize..64, 0usize..64), 0..1500),
            ) {
                let coords: Vec<(usize, usize)> =
                    seq.iter().map(|&(r, c)| (r % rows, c % cols)).collect();
                let mut tagged: Vec<(usize, usize, usize)> = coords
                    .iter()
                    .enumerate()
                    .map(|(k, &(r, c))| (r, c, k))
                    .collect();
                tagged.sort_unstable_by_key(|a| (a.0, a.1));
                let mut b = TripletBuilder::new(rows, cols);
                for &(r, c) in &coords {
                    b.add(r, c, 1.0);
                }
                let p = b.symbolic();
                let perm: Vec<usize> = p.perm.iter().map(|&k| k as usize).collect();
                let oracle: Vec<usize> = tagged.iter().map(|t| t.2).collect();
                prop_assert_eq!(perm, oracle);
            }
        }
    }
}
