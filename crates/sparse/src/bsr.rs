//! Node-blocked sparse matrices: 3×3 blocks in block-CSR order.
//!
//! Every unknown of the elasticity system is one of a mesh node's three
//! displacement components, and a Dirichlet substitution removes whole
//! nodes, so `K_ff`, `K_fc` and the IC(0) factor of `K_ff` are made of
//! 3×3 node blocks. PETSc stores such a system in BAIJ form with block
//! size 3; [`BsrMatrix`] is that layout: one `u32` block column and nine
//! `f64` values per block, 76 bytes where scalar CSR spends 16 per
//! stored entry. A stiffness block holds about eight of its nine
//! entries, so a Krylov iteration moves about 35 % fewer bytes.
//!
//! Entries that the scalar pattern lacks are stored as zeros, and a
//! 9-bit mask per block records which entries the scalar pattern holds.
//! The kernels never read the mask; [`BsrMatrix::nnz`] and
//! [`BsrMatrix::to_csr`] report the scalar pattern exactly from it. The
//! IC(0) factor (`crate::precond::Ic0`) is computed on the filled
//! pattern, every entry of every stored block, straight from these
//! blocks.
//!
//! The products are the scalar CSR products bit for bit: each scalar row
//! still sums its terms left to right in ascending column order, from a
//! `+0.0` start, and a filled zero adds a `±0.0` term, which leaves every
//! running sum as it was (a sum that starts at `+0.0` is never `−0.0`).
//! The one exception is an input holding `±∞` or NaN, where a filled
//! zero's `0 · ∞` is NaN.

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use rayon::prelude::*;

/// One 3×3 block, row-major: entry `(k, l)` is at `3k + l`.
pub type Block = [f64; 9];

/// The mask of a block whose nine entries are all in the pattern.
pub(crate) const FULL: u16 = 0x1ff;

/// A sparse matrix of 3×3 blocks (see the module docs).
///
/// ```
/// use brainshift_sparse::{BsrMatrix, TripletBuilder};
/// let mut b = TripletBuilder::new(3, 3);
/// b.add(0, 0, 2.0);
/// b.add(1, 2, -1.0);
/// b.add(2, 1, -1.0);
/// b.add(2, 2, 2.0);
/// let a = b.build();
/// let blocks = BsrMatrix::from_csr(&a).expect("3 × 3");
/// assert_eq!(blocks.nnz(), 4);
/// assert_eq!(blocks.to_csr(), a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BsrMatrix {
    /// Scalar rows, a multiple of 3.
    nrows: usize,
    /// Scalar columns, a multiple of 3.
    ncols: usize,
    /// Block row `i`'s blocks are `indptr[i]..indptr[i + 1]`.
    indptr: Vec<usize>,
    /// Block columns, ascending within each block row.
    indices: Vec<u32>,
    /// Block values, zeros where the scalar pattern has no entry.
    blocks: Vec<Block>,
    /// Bit `3k + l` of a block's mask: entry `(k, l)` is in the pattern.
    mask: Vec<u16>,
    /// Scalar entries in the pattern.
    nnz: usize,
}

impl BsrMatrix {
    /// Validate raw block-CSR arrays: `indptr` over `nrows / 3` block
    /// rows, block columns `indices` ascending and in range in each row,
    /// one block and one mask per block. Dimensions that are not multiples
    /// of 3, a mask bit outside the block and a nonzero outside the mask
    /// are [`SparseError::InvalidCsr`] too.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        blocks: Vec<Block>,
        mask: Vec<u16>,
    ) -> Result<Self, SparseError> {
        let invalid = |reason: String| Err(SparseError::InvalidCsr { reason });
        if !nrows.is_multiple_of(3) || !ncols.is_multiple_of(3) {
            return invalid(format!("{nrows} × {ncols} does not make whole node blocks"));
        }
        if indptr.len() != nrows / 3 + 1 || indptr[0] != 0 {
            return invalid(format!("{} row pointers for {} block rows", indptr.len(), nrows / 3));
        }
        let nblocks = indptr[nrows / 3];
        if [indices.len(), blocks.len(), mask.len()] != [nblocks; 3] {
            let lens = (indices.len(), blocks.len(), mask.len());
            return invalid(format!("{nblocks} blocks, but (columns, blocks, masks) = {lens:?}"));
        }
        if let Some(i) = indptr.windows(2).position(|w| w[0] > w[1]) {
            return invalid(format!("row pointers not monotone at block row {i}"));
        }
        let block_cols = ncols / 3;
        for (i, w) in indptr.windows(2).enumerate() {
            let row = &indices[w[0]..w[1]];
            if row.windows(2).any(|p| p[0] >= p[1]) {
                return invalid(format!("block row {i}: block columns must be sorted and unique"));
            }
            if let Some(&last) = row.last().filter(|&&j| j as usize >= block_cols) {
                return invalid(format!("block row {i}: block column {last} out of range"));
            }
        }
        let mut nnz = 0;
        for (p, (b, &m)) in blocks.iter().zip(&mask).enumerate() {
            let nonzero = b.iter().enumerate().fold(0u16, |bits, (e, &v)| bits | u16::from(v != 0.0) << e);
            if m & !FULL != 0 || nonzero & !m != 0 {
                return invalid(format!("block {p}: mask {m:#05x} leaves a nonzero out or a bit outside the block"));
            }
            nnz += m.count_ones() as usize;
        }
        Ok(BsrMatrix { nrows, ncols, indptr, indices, blocks, mask, nnz })
    }

    /// The node blocks of a scalar matrix whose dimensions are multiples
    /// of 3; anything else is [`SparseError::InvalidCsr`]. One pass counts
    /// the blocks, so every array is allocated once, at its size, and a
    /// second writes them.
    pub fn from_csr(a: &CsrMatrix) -> Result<Self, SparseError> {
        if !a.nrows().is_multiple_of(3) {
            return Err(SparseError::InvalidCsr { reason: format!("{} rows do not make whole node blocks", a.nrows()) });
        }
        let nodes = a.nrows() / 3;
        let mut indptr = Vec::with_capacity(nodes + 1);
        indptr.push(0);
        for i in 0..nodes {
            indptr.push(indptr[i] + a.node_blocks(i).count());
        }
        let nblocks = indptr[nodes];
        let mut indices = Vec::with_capacity(nblocks);
        let mut blocks = Vec::with_capacity(nblocks);
        let mut mask = Vec::with_capacity(nblocks);
        for i in 0..nodes {
            for (j, b, m) in a.node_blocks(i) {
                indices.push(u32::try_from(j).unwrap_or(u32::MAX));
                blocks.push(b);
                mask.push(m);
            }
        }
        Self::from_raw(a.nrows(), a.ncols(), indptr, indices, blocks, mask)
    }

    /// Number of scalar rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of scalar columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of block rows (`nrows / 3`).
    #[inline]
    pub(crate) fn block_rows(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Entries of the scalar pattern (filled zeros not counted).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Heap footprint of the stored arrays (row pointers, block columns,
    /// blocks and masks), in bytes.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.indptr.as_slice())
            + std::mem::size_of_val(self.indices.as_slice())
            + std::mem::size_of_val(self.blocks.as_slice())
            + std::mem::size_of_val(self.mask.as_slice())
    }

    /// Block row `i` as `(block columns, blocks, masks)` slices.
    #[inline]
    pub fn block_row(&self, i: usize) -> (&[u32], &[Block], &[u16]) {
        let r = self.indptr[i]..self.indptr[i + 1];
        (&self.indices[r.clone()], &self.blocks[r.clone()], &self.mask[r])
    }

    /// The scalar matrix: entries, columns and value bits exactly those
    /// the blocks were built from.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices = Vec::with_capacity(self.nnz);
        let mut values = Vec::with_capacity(self.nnz);
        indptr.push(0);
        for i in 0..self.nrows {
            let (bi, k) = (i / 3, i % 3);
            for p in self.indptr[bi]..self.indptr[bi + 1] {
                let (c0, b, row_bits) =
                    (3 * self.indices[p] as usize, &self.blocks[p], self.mask[p] >> (3 * k));
                for l in (0..3).filter(|l| row_bits >> l & 1 == 1) {
                    indices.push(c0 + l);
                    values.push(b[3 * k + l]);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix::from_raw(self.nrows, self.ncols, indptr, indices, values)
            .expect("block rows list their columns ascending and in range")
    }

    /// The first entry of block `(bi, bj)` that the scalar pattern holds,
    /// as scalar `(row, column)`; the block's corner if it holds none or
    /// is not stored. Locates a factorization's refusal in the matrix's
    /// own numbering.
    pub(crate) fn first_entry(&self, bi: usize, bj: usize) -> (usize, usize) {
        let (cols, _, masks) = self.block_row(bi);
        let mask = cols.binary_search_by_key(&bj, |&j| j as usize).map_or(0, |q| masks[q]);
        let e = if mask == 0 { 0 } else { mask.trailing_zeros() as usize };
        (3 * bi + e / 3, 3 * bj + e % 3)
    }

    /// Block row `i` of `A x`: each scalar row sums its terms in
    /// ascending column order from `+0.0`, as [`CsrMatrix::spmv`] does.
    #[inline]
    fn row_product(&self, i: usize, x: &[f64]) -> [f64; 3] {
        let (cols, blocks, _) = self.block_row(i);
        let mut acc = [0.0; 3];
        for (&j, b) in cols.iter().zip(blocks) {
            let c = 3 * j as usize;
            let x: &[f64; 3] = x[c..c + 3].try_into().expect("a block spans three columns");
            for k in 0..3 {
                acc[k] += b[3 * k] * x[0];
                acc[k] += b[3 * k + 1] * x[1];
                acc[k] += b[3 * k + 2] * x[2];
            }
        }
        acc
    }

    /// Dense `y = A x` (serial).
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.ncols);
        debug_assert_eq!(y.len(), self.nrows);
        for (i, yi) in y.chunks_exact_mut(3).enumerate() {
            yi.copy_from_slice(&self.row_product(i, x));
        }
    }

    /// Dense `y = A x` with block rows processed in parallel.
    pub fn spmv_parallel(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.ncols);
        debug_assert_eq!(y.len(), self.nrows);
        y.par_chunks_mut(3)
            .enumerate()
            .for_each(|(i, yi)| yi.copy_from_slice(&self.row_product(i, x)));
    }
}

/// The blocks of one block row, merged from its three scalar rows: a
/// scalar column `c` lands in block column `c / 3`, position `c % 3`.
/// Yields `(block column, block, mask)` in ascending block column.
#[derive(Debug)]
pub struct RowBlocks<'a> {
    rows: [(&'a [usize], &'a [f64]); 3],
    at: [usize; 3],
}

impl<'a> RowBlocks<'a> {
    /// The next block's column.
    fn head(&self) -> Option<usize> {
        (0..3).filter_map(|k| self.rows[k].0.get(self.at[k])).map(|&c| c / 3).min()
    }

    /// The block columns alone, without gathering the blocks.
    pub fn columns(mut self) -> impl Iterator<Item = usize> + 'a {
        std::iter::from_fn(move || {
            let j = self.head()?;
            for k in 0..3 {
                let cols = self.rows[k].0;
                while cols.get(self.at[k]).is_some_and(|&c| c / 3 == j) {
                    self.at[k] += 1;
                }
            }
            Some(j)
        })
    }
}

impl Iterator for RowBlocks<'_> {
    type Item = (usize, Block, u16);

    fn count(self) -> usize {
        self.columns().count()
    }

    fn next(&mut self) -> Option<Self::Item> {
        let j = self.head()?;
        let mut block = [0.0; 9];
        let mut mask = 0u16;
        for k in 0..3 {
            let (cols, vals) = self.rows[k];
            while let Some(&c) = cols.get(self.at[k]) {
                if c / 3 != j {
                    break;
                }
                block[3 * k + c % 3] = vals[self.at[k]];
                mask |= 1 << (3 * k + c % 3);
                self.at[k] += 1;
            }
        }
        Some((j, block, mask))
    }
}

impl CsrMatrix {
    /// Node `node`'s rows `3·node..3·node + 3` as 3×3 blocks, one per
    /// node that the rows reach, in ascending node order, each with the
    /// mask of its stored entries.
    pub fn node_blocks(&self, node: usize) -> RowBlocks<'_> {
        RowBlocks {
            rows: [self.row(3 * node), self.row(3 * node + 1), self.row(3 * node + 2)],
            at: [0; 3],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::TripletBuilder;

    /// 6 × 9: partial blocks, a full one and a stored exact `0.0`.
    fn sample() -> CsrMatrix {
        let mut b = TripletBuilder::new(6, 9);
        for (r, c, v) in [(0, 0, 1.5), (0, 4, -2.0), (1, 1, 3.0), (2, 8, 0.0), (3, 3, 1.0), (4, 5, -1.0), (5, 3, 2.5)] {
            b.add(r, c, v);
        }
        for l in 0..3 {
            for k in 0..3 {
                b.add(3 + k, 6 + l, (k * 3 + l) as f64 - 4.0);
            }
        }
        b.build()
    }

    #[test]
    fn round_trips_the_scalar_pattern_and_an_explicit_zero() {
        let a = sample();
        let m = BsrMatrix::from_csr(&a).unwrap();
        assert_eq!(m.nnz(), a.nnz());
        assert_eq!(m.blocks.len(), 5);
        assert_eq!(m.to_csr(), a);
    }

    #[test]
    fn products_equal_the_scalar_products_bit_for_bit() {
        let a = sample();
        let m = BsrMatrix::from_csr(&a).unwrap();
        let x: Vec<f64> = (0..9).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
        let (mut y, mut yb, mut yp) = (vec![0.0; 6], vec![f64::NAN; 6], vec![f64::NAN; 6]);
        a.spmv(&x, &mut y);
        m.spmv(&x, &mut yb);
        m.spmv_parallel(&x, &mut yp);
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y), bits(&yb));
        assert_eq!(bits(&y), bits(&yp));
    }

    #[test]
    fn malformed_blocks_are_refused() {
        let raw = |nrows, ncols, indptr: &[usize], indices: &[u32], mask: u16, v: f64| {
            let n = indices.len();
            BsrMatrix::from_raw(nrows, ncols, indptr.to_vec(), indices.to_vec(), vec![[v; 9]; n], vec![mask; n])
        };
        assert!(raw(3, 3, &[0, 1], &[0], FULL, 1.0).is_ok());
        assert!(raw(3, 4, &[0, 1], &[0], FULL, 1.0).is_err(), "not whole blocks");
        assert!(raw(6, 6, &[0, 1], &[0], FULL, 1.0).is_err(), "a block row missing");
        assert!(raw(3, 3, &[0, 2], &[0], FULL, 1.0).is_err(), "a block missing");
        assert!(raw(6, 3, &[0, 2, 1], &[0], FULL, 1.0).is_err(), "row pointers not monotone");
        assert!(raw(3, 6, &[0, 2], &[1, 0], FULL, 1.0).is_err(), "unsorted");
        assert!(raw(3, 3, &[0, 1], &[1], FULL, 1.0).is_err(), "out of range");
        assert!(raw(3, 3, &[0, 1], &[0], 0x0ff, 1.0).is_err(), "a nonzero outside the mask");
        assert!(raw(3, 3, &[0, 1], &[0], 0x3ff, 0.0).is_err(), "a bit outside the block");
        let identity4 = CsrMatrix::from_raw(4, 4, (0..=4).collect(), (0..4).collect(), vec![1.0; 4]).unwrap();
        assert!(BsrMatrix::from_csr(&identity4).is_err(), "four rows are not whole nodes");
    }

    #[test]
    fn block_columns_and_counts_match_the_blocks() {
        let a = sample();
        for node in 0..2 {
            let blocks: Vec<usize> = a.node_blocks(node).map(|(j, _, _)| j).collect();
            assert_eq!(a.node_blocks(node).columns().collect::<Vec<_>>(), blocks);
            assert_eq!(a.node_blocks(node).count(), blocks.len());
        }
    }
}
