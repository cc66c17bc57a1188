//! Compressed sparse row matrices.
//!
//! The paper solves `K u = f` (77 511 and 253 308 equations) with PETSc;
//! this module is the storage layer of our from-scratch replacement. FEM
//! assembly produces triplets concurrently, which [`TripletBuilder`]
//! compresses into CSR with duplicate summation.

use crate::error::SparseError;
use rayon::prelude::*;

/// A sparse matrix in CSR format.
///
/// ```
/// use brainshift_sparse::{TripletBuilder, gmres, IdentityPrecond, SolverOptions};
/// let mut b = TripletBuilder::new(2, 2);
/// b.add(0, 0, 4.0);
/// b.add(1, 1, 2.0);
/// b.add(0, 1, 1.0);
/// b.add(1, 0, 1.0);
/// let a = b.build();
/// let mut x = vec![0.0; 2];
/// let stats = gmres(&a, &IdentityPrecond, &[5.0, 3.0], &mut x, &SolverOptions::default())
///     .expect("shapes agree");
/// assert!(stats.converged());
/// assert!((x[0] - 1.0).abs() < 1e-4 && (x[1] - 1.0).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    /// Row pointer: `indptr[i]..indptr[i+1]` indexes row i's entries.
    indptr: Vec<usize>,
    /// Column indices, sorted within each row.
    indices: Vec<usize>,
    /// Non-zero values.
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Construct from raw CSR arrays, validating the invariants
    /// (monotone indptr, in-range sorted unique column indices per row).
    /// Returns [`SparseError::InvalidCsr`] if they don't hold.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self, SparseError> {
        let invalid = |reason: String| Err(SparseError::InvalidCsr { reason });
        if indptr.len() != nrows + 1 {
            return invalid(format!("indptr has length {}, expected {}", indptr.len(), nrows + 1));
        }
        let nnz = indptr[nrows];
        if nnz != indices.len() {
            return invalid(format!("indptr ends at {nnz} but {} indices given", indices.len()));
        }
        if indices.len() != values.len() {
            return invalid(format!("{} indices but {} values", indices.len(), values.len()));
        }
        for i in 0..nrows {
            if indptr[i] > indptr[i + 1] {
                return invalid(format!("indptr not monotone at row {i}"));
            }
            let row = &indices[indptr[i]..indptr[i + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return invalid(format!("row {i}: column indices must be sorted and unique"));
                }
            }
            if let Some(&last) = row.last() {
                if last >= ncols {
                    return invalid(format!("row {i}: column index {last} out of range"));
                }
            }
        }
        Ok(CsrMatrix { nrows, ncols, indptr, indices, values })
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    #[inline]
    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    #[inline]
    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Heap footprint of the stored arrays (indptr + indices + values),
    /// in bytes.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.indptr.as_slice())
            + std::mem::size_of_val(self.indices.as_slice())
            + std::mem::size_of_val(self.values.as_slice())
    }

    /// Row `i` as `(columns, values)` slices.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let r = self.indptr[i]..self.indptr[i + 1];
        (&self.indices[r.clone()], &self.values[r])
    }

    /// The row-pointer array (length `nrows + 1`).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column indices, row-major, sorted within each row.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Stored non-zero values (parallel to `indices`).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Entry `(i, j)` or 0.0 if not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Dense y = A x (serial).
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.ncols);
        debug_assert_eq!(y.len(), self.nrows);
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            let mut acc = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * x[c];
            }
            y[i] = acc;
        }
    }

    /// Dense y = A x with rows processed in parallel.
    pub fn spmv_parallel(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.ncols);
        debug_assert_eq!(y.len(), self.nrows);
        y.par_iter_mut().enumerate().for_each(|(i, out)| {
            let (cols, vals) = self.row(i);
            let mut acc = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * x[c];
            }
            *out = acc;
        });
    }

    /// The main diagonal (zeros where no entry is stored).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.nrows.min(self.ncols)).map(|i| self.get(i, i)).collect()
    }

    /// Transpose (O(nnz)).
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols];
        for &c in &self.indices {
            counts[c] += 1;
        }
        let mut indptr = vec![0usize; self.ncols + 1];
        for i in 0..self.ncols {
            indptr[i + 1] = indptr[i] + counts[i];
        }
        let mut indices = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = indptr.clone();
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                let k = next[c];
                indices[k] = i;
                values[k] = v;
                next[c] += 1;
            }
        }
        CsrMatrix { nrows: self.ncols, ncols: self.nrows, indptr, indices, values }
    }

    /// Maximum relative asymmetry `|a_ij - a_ji| / max|a|`; 0 for a
    /// symmetric matrix. Useful for validating FEM assembly.
    pub fn asymmetry(&self) -> f64 {
        let t = self.transpose();
        let scale = self
            .values
            .iter()
            .map(|v| v.abs())
            .fold(0.0f64, f64::max)
            .max(1e-300);
        let mut worst = 0.0f64;
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                worst = worst.max((v - t.get(i, c)).abs());
            }
        }
        worst / scale
    }

    /// Extract the square sub-matrix of rows & columns `lo..hi`.
    pub fn principal_submatrix(&self, lo: usize, hi: usize) -> CsrMatrix {
        debug_assert!(lo <= hi && hi <= self.nrows && hi <= self.ncols);
        let n = hi - lo;
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for i in lo..hi {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                if c >= lo && c < hi {
                    indices.push(c - lo);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix { nrows: n, ncols: n, indptr, indices, values }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

/// Accumulates `(row, col, value)` triplets and compresses them to CSR,
/// summing duplicates — the classic two-pass COO→CSR conversion.
#[derive(Debug, Clone)]
pub struct TripletBuilder {
    nrows: usize,
    ncols: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl TripletBuilder {
    /// An empty builder for an `nrows × ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        debug_assert!(nrows < u32::MAX as usize && ncols < u32::MAX as usize);
        TripletBuilder { nrows, ncols, entries: Vec::new() }
    }

    /// An empty builder with triplet capacity pre-reserved.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        let mut b = Self::new(nrows, ncols);
        b.entries.reserve(cap);
        b
    }

    /// Add `value` at `(row, col)`; duplicates are summed at build time.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.nrows && col < self.ncols);
        self.entries.push((row as u32, col as u32, value));
    }

    /// Number of raw (pre-dedup) triplets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no triplets were added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merge another builder's triplets (used to combine per-thread
    /// builders after parallel assembly).
    pub fn merge(&mut self, other: TripletBuilder) {
        debug_assert_eq!(self.nrows, other.nrows);
        debug_assert_eq!(self.ncols, other.ncols);
        self.entries.extend(other.entries);
    }

    /// Compress to CSR, summing duplicate coordinates.
    pub fn build(mut self) -> CsrMatrix {
        self.entries
            .par_sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        let mut indptr = vec![0usize; self.nrows + 1];
        let mut indices: Vec<usize> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        let mut it = self.entries.into_iter().peekable();
        while let Some((r, c, v)) = it.next() {
            let mut acc = v;
            while let Some(&(r2, c2, v2)) = it.peek() {
                if r2 == r && c2 == c {
                    acc += v2;
                    it.next();
                } else {
                    break;
                }
            }
            indices.push(c as usize);
            values.push(acc);
            indptr[r as usize + 1] = indices.len();
        }
        // Fill gaps for empty rows.
        for i in 1..=self.nrows {
            if indptr[i] < indptr[i - 1] {
                indptr[i] = indptr[i - 1];
            }
            indptr[i] = indptr[i].max(indptr[i - 1]);
        }
        CsrMatrix { nrows: self.nrows, ncols: self.ncols, indptr, indices, values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [2 0 1]
        // [0 3 0]
        // [4 0 5]
        let mut b = TripletBuilder::new(3, 3);
        b.add(0, 0, 2.0);
        b.add(0, 2, 1.0);
        b.add(1, 1, 3.0);
        b.add(2, 0, 4.0);
        b.add(2, 2, 5.0);
        b.build()
    }

    #[test]
    fn triplets_build_and_get() {
        let m = small();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(2, 2), 5.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 0, 1.0);
        b.add(0, 0, 2.5);
        b.add(1, 1, -1.0);
        let m = b.build();
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn empty_rows_handled() {
        let mut b = TripletBuilder::new(4, 4);
        b.add(0, 0, 1.0);
        b.add(3, 3, 2.0);
        let m = b.build();
        assert_eq!(m.row(1).0.len(), 0);
        assert_eq!(m.row(2).0.len(), 0);
        assert_eq!(m.get(3, 3), 2.0);
    }

    #[test]
    fn spmv_matches_manual() {
        let m = small();
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        m.spmv(&x, &mut y);
        assert_eq!(y, vec![5.0, 6.0, 19.0]);
        let mut y2 = vec![0.0; 3];
        m.spmv_parallel(&x, &mut y2);
        assert_eq!(y, y2);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = small();
        let tt = m.transpose().transpose();
        assert_eq!(m, tt);
        assert_eq!(m.transpose().get(0, 2), 4.0);
    }

    #[test]
    fn diagonal_extraction() {
        let m = small();
        assert_eq!(m.diagonal(), vec![2.0, 3.0, 5.0]);
    }

    #[test]
    fn asymmetry_zero_for_symmetric() {
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 0, 2.0);
        b.add(0, 1, 1.0);
        b.add(1, 0, 1.0);
        b.add(1, 1, 2.0);
        let m = b.build();
        assert_eq!(m.asymmetry(), 0.0);
        assert!(small().asymmetry() > 0.0);
    }

    #[test]
    fn submatrix() {
        let m = small();
        let s = m.principal_submatrix(0, 2);
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.get(0, 0), 2.0);
        assert_eq!(s.get(0, 1), 0.0); // the (0,2) entry fell outside
        assert_eq!(s.nnz(), 2);
    }

    #[test]
    fn identity_spmv_is_noop() {
        let i = CsrMatrix::identity(5);
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let mut y = vec![0.0; 5];
        i.spmv(&x, &mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn merge_combines_builders() {
        let mut a = TripletBuilder::new(2, 2);
        a.add(0, 0, 1.0);
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 0, 2.0);
        b.add(1, 0, 3.0);
        a.merge(b);
        let m = a.build();
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn from_raw_rejects_unsorted_columns() {
        let r = CsrMatrix::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]);
        match r {
            Err(crate::error::SparseError::InvalidCsr { reason }) => {
                assert!(reason.contains("sorted"), "{reason}");
            }
            other => panic!("expected InvalidCsr, got {other:?}"),
        }
    }

    #[test]
    fn from_raw_rejects_bad_lengths_and_ranges() {
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(CsrMatrix::from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        assert!(CsrMatrix::from_raw(1, 2, vec![0, 1], vec![0], vec![1.0, 2.0]).is_err());
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err());
    }

    #[test]
    fn from_raw_accepts_valid_input() {
        let m = CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![3.0, 4.0]).unwrap();
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.get(1, 1), 4.0);
    }

    #[test]
    fn frobenius() {
        let m = CsrMatrix::identity(4);
        assert!((m.frobenius_norm() - 2.0).abs() < 1e-15);
    }
}
