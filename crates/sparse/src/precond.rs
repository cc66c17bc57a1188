//! Preconditioners.
//!
//! The paper solves its FEM system "using the Generalized Minimal Residual
//! (GMRES) solver with block Jacobi preconditioning" (PETSc's default
//! block-Jacobi applies one block per process, ILU(0) inside each block).
//! On the symmetric stiffness matrix, ILU(0) and IC(0) are the same
//! operator, so the blocks here are factored with IC(0), which stores one
//! triangle instead of two; point Jacobi and identity serve the ablations.
//!
//! The IC(0) values are computed on the scalar pattern of each block and
//! then stored as 3×3 node blocks ([`BsrMatrix`]), which the triangular
//! sweeps read: the same arithmetic in the same order as the scalar
//! sweeps, on about 35 % fewer bytes (DESIGN §20).

use crate::bsr::{Block, BsrMatrix, RowBlocks};
use crate::csr::CsrMatrix;
use crate::error::SparseError;
use rayon::prelude::*;

/// Application of `z = M⁻¹ r` for some preconditioning operator `M`.
pub trait Preconditioner: Send + Sync {
    /// Apply `z = M⁻¹ r`.
    fn apply(&self, r: &[f64], z: &mut [f64]);
    /// Approximate heap footprint of the factored operator, in bytes.
    /// Drives the serving layer's memory-budgeted context cache; the
    /// default (0) is correct for stateless operators.
    fn memory_bytes(&self) -> usize {
        0
    }
}

/// No preconditioning (`M = I`).
#[derive(Debug, Default, Clone)]
pub struct IdentityPrecond;

impl Preconditioner for IdentityPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

/// Point-Jacobi (diagonal) preconditioning.
#[derive(Debug, Clone)]
pub struct JacobiPrecond {
    inv_diag: Vec<f64>,
}

impl JacobiPrecond {
    /// Build from the matrix diagonal; zero diagonals become 1 so the
    /// operator stays well-defined.
    pub fn new(a: &CsrMatrix) -> Self {
        let inv_diag = a
            .diagonal()
            .into_iter()
            .map(|d| if d.abs() < 1e-300 { 1.0 } else { 1.0 / d })
            .collect();
        JacobiPrecond { inv_diag }
    }
}

impl Preconditioner for JacobiPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        debug_assert_eq!(r.len(), self.inv_diag.len());
        for ((zi, ri), di) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = ri * di;
        }
    }
    fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.inv_diag.as_slice())
    }
}

/// IC(0): incomplete Cholesky with zero fill-in, in the root-free form
/// `M = Uᵀ D⁻¹ U` (`D = diag(U)`) on the upper-triangle pattern of `A`.
///
/// It factors the symmetrically scaled `S A S + αI`
/// (`S = diag(1/√|a_ii|)`): without the scaling an incomplete
/// factorization is numerically unstable on high-material-contrast
/// elasticity matrices and the resulting preconditioner stalls the Krylov
/// solver. On a symmetric matrix this is the operator ILU(0) computes —
/// its unit lower factor is `Uᵀ D⁻¹` — from one stored triangle.
///
/// The values are computed on the scalar pattern; `U` is then stored in
/// 3×3 node blocks, with `lead` pad rows before row 0 so that the blocks
/// line up with the nodes of the matrix the factored block was cut from.
/// The sweeps skip the pad rows and columns: they are the identity rows
/// a node-aligned factor would carry, and contribute nothing.
#[derive(Debug, Clone)]
pub struct Ic0 {
    /// The factor `U`, row `i` at padded row `i + lead`: its pivot `u_ii`
    /// on the diagonal of the first block of its block row, then `u_ij`
    /// for the columns `j > i` of row `i` of `A`. Lower entries of the
    /// diagonal blocks and pad entries are zero and never read.
    u: BsrMatrix,
    /// Pad rows before row 0 (0, 1 or 2).
    lead: usize,
    /// Symmetric scaling `S` applied before factorization.
    scale: Vec<f64>,
}

impl Ic0 {
    /// Factorize with an adaptive diagonal shift: IC(0) of an SPD matrix
    /// can still produce tiny or negative pivots when material contrast is
    /// high; following PETSc's positive-definite shift strategy, the
    /// scaled matrix is refactored with a growing `αI` until all pivots
    /// are healthy.
    ///
    /// `a` must be square with a structurally symmetric sparsity pattern,
    /// as every stiffness matrix and each of its principal blocks is; a
    /// stored entry without its mirror is [`SparseError::AsymmetricPattern`].
    pub fn new(a: &CsrMatrix) -> Result<Self, SparseError> {
        Self::aligned(a, 0)
    }

    /// [`Ic0::new`] with the factor's node blocks starting `lead` rows
    /// before row 0 of `a`: for a block cut at row `lo` of a node-blocked
    /// matrix, `lead = lo % 3` lines the blocks up with its nodes.
    fn aligned(a: &CsrMatrix, lead: usize) -> Result<Self, SparseError> {
        let n = a.nrows();
        if a.ncols() != n {
            return Err(SparseError::DimensionMismatch { what: "ic0 columns", expected: n, got: a.ncols() });
        }
        let scale: Vec<f64> = a
            .diagonal()
            .into_iter()
            .map(|d| if d.abs() > 1e-300 { 1.0 / d.abs().sqrt() } else { 1.0 })
            .collect();
        let upper = ScaledUpper::new(a, &scale);
        let mut alpha = 0.0;
        loop {
            let (values, min_pivot) = upper.factor(a, alpha)?;
            // Scaled diagonal is ~1, so pivots ≥ 0.01 mean a stable factor.
            if min_pivot >= 1e-2 || alpha > 1.0 {
                let u = upper.blocked(&values, lead)?;
                return Ok(Ic0 { u, lead, scale });
            }
            alpha = if alpha == 0.0 { 0.02 } else { alpha * 4.0 };
        }
    }

    /// Dimension of the factored matrix.
    fn dim(&self) -> usize {
        self.scale.len()
    }

    /// The factor `U` as scalar CSR (row `i`: its pivot, then `u_ij` for
    /// `j > i` ascending) and the scaling `S`: the values the sweeps read,
    /// without the node blocks' filled zeros and pad.
    pub fn scalar_factor(&self) -> (CsrMatrix, &[f64]) {
        (self.u.principal_submatrix(self.lead, self.lead + self.dim()), &self.scale)
    }

    /// Solve `M z = r` with `M = S⁻¹ Uᵀ D⁻¹ U S⁻¹`:
    /// `z = S · (Uᵀ D⁻¹ U)⁻¹ · (S r)`. The forward sweep scatters row `i`
    /// of `U` (column `i` of `Uᵀ`) once its unknown is final; the backward
    /// sweep gathers it. Each factor block is read once per sweep.
    ///
    /// Both sweeps do the scalar sweeps' arithmetic in their order: each
    /// `z[j]` takes its forward updates in ascending source row, and each
    /// backward row subtracts its terms in ascending column. A filled zero
    /// subtracts a `±0.0`, which changes no nonzero; only where `r` holds
    /// a `−0.0` can it flip the sign of a zero in `z`.
    pub fn solve(&self, r: &[f64], z: &mut [f64]) {
        let n = self.dim();
        debug_assert!(r.len() == n && z.len() == n);
        for ((zi, ri), si) in z.iter_mut().zip(r).zip(&self.scale) {
            *zi = ri * si;
        }
        let lead = self.lead;
        // Row `k` of block row `bi`, unless it is a pad row.
        let row = |bi: usize, k: usize| (3 * bi + k).checked_sub(lead).filter(|&i| i < n);
        // Forward: (Uᵀ D⁻¹) w = S r.
        for bi in 0..self.u.block_rows() {
            let (cols, blocks) = self.u.block_row(bi);
            let d = &blocks[0];
            let mut w = [0.0; 3];
            for k in 0..3 {
                let Some(i) = row(bi, k) else { continue };
                w[k] = z[i] / d[4 * k];
                for l in k + 1..3 {
                    if let Some(h) = row(bi, l) {
                        z[h] -= d[3 * k + l] * w[k];
                    }
                }
            }
            for (&j, b) in cols[1..].iter().zip(&blocks[1..]) {
                scatter(b, &w, 3 * j as usize - lead, z);
            }
        }
        // Backward: U v = w, then z = S v.
        for bi in (0..self.u.block_rows()).rev() {
            let (cols, blocks) = self.u.block_row(bi);
            let d = &blocks[0];
            for k in (0..3).rev() {
                let Some(i) = row(bi, k) else { continue };
                let mut acc = z[i];
                for l in k + 1..3 {
                    if let Some(h) = row(bi, l) {
                        acc -= d[3 * k + l] * z[h];
                    }
                }
                for (&j, b) in cols[1..].iter().zip(&blocks[1..]) {
                    acc = gather(b, k, 3 * j as usize - lead, z, acc);
                }
                z[i] = acc / d[4 * k];
            }
        }
        for (zi, si) in z.iter_mut().zip(&self.scale) {
            *zi *= si;
        }
    }
}

/// The forward sweep's updates from one off-diagonal block of `U`:
/// `z[c + l] −= b[k][l] · w[k]` for `k = 0, 1, 2` in turn. `c` is the
/// block's first column; only a block in the last block column can reach
/// past the end of `z`, into pad columns, which are skipped.
#[inline]
fn scatter(b: &Block, w: &[f64; 3], c: usize, z: &mut [f64]) {
    if let Some(z) = z.get_mut(c..c + 3) {
        for l in 0..3 {
            z[l] = z[l] - b[l] * w[0] - b[3 + l] * w[1] - b[6 + l] * w[2];
        }
    } else {
        for (l, zl) in z[c..].iter_mut().enumerate() {
            *zl = *zl - b[l] * w[0] - b[3 + l] * w[1] - b[6 + l] * w[2];
        }
    }
}

/// The backward sweep's terms of row `k` of one off-diagonal block of
/// `U`, subtracted from `acc` in ascending column; pad columns skipped.
#[inline]
fn gather(b: &Block, k: usize, c: usize, z: &[f64], acc: f64) -> f64 {
    let b = &b[3 * k..3 * k + 3];
    match z.get(c..c + 3) {
        Some(z) => acc - b[0] * z[0] - b[1] * z[1] - b[2] * z[2],
        None => z[c..].iter().zip(b).fold(acc, |acc, (zl, bl)| acc - bl * zl),
    }
}

/// The upper triangle of `S A S` with the diagonal first in every row
/// (stored even where `A` has none), plus each row's largest
/// off-diagonal magnitude over the *whole* row: the pivot floors are
/// relative to the problem's scale, or a badly scaled system produces
/// near-singular factors whose inverse destroys the preconditioned
/// residual norm.
struct ScaledUpper {
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
    off_max: Vec<f64>,
}

impl ScaledUpper {
    fn new(a: &CsrMatrix, scale: &[f64]) -> Self {
        let n = a.nrows();
        let cap = (a.nnz() + n) / 2 + n;
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices = Vec::with_capacity(cap);
        let mut values = Vec::with_capacity(cap);
        let mut off_max = Vec::with_capacity(n);
        indptr.push(0);
        for i in 0..n {
            let (cols, vals) = a.row(i);
            let upper = cols.partition_point(|&j| j <= i);
            let mut diag = 0.0;
            let mut largest = 0.0f64;
            for (&j, &v) in cols.iter().zip(vals) {
                let s = v * (scale[i] * scale[j]);
                if j == i {
                    diag = s;
                } else {
                    largest = largest.max(s.abs());
                }
            }
            indices.push(i);
            values.push(diag);
            for (&j, &v) in cols[upper..].iter().zip(&vals[upper..]) {
                indices.push(j);
                values.push(v * (scale[i] * scale[j]));
            }
            off_max.push(largest);
            indptr.push(indices.len());
        }
        ScaledUpper { indptr, indices, values, off_max }
    }

    /// One factorization attempt of `S A S + αI`, row by row: row `i`
    /// subtracts `(u_ki / u_kk) ·` (row `k` from column `i` on) for every
    /// `k < i` in row `i` of `A`, on row `i`'s own pattern (found through
    /// a dense position array). Row `k`'s entry in column `i` sits at
    /// `cursor[k]`: the columns of a finished row are consumed in
    /// ascending order as later rows reach them. Returns the factor's
    /// values and the smallest pivot.
    fn factor(&self, a: &CsrMatrix, alpha: f64) -> Result<(Vec<f64>, f64), SparseError> {
        const ABSENT: usize = usize::MAX;
        let n = self.off_max.len();
        let (indptr, cols) = (&self.indptr, &self.indices);
        let mut u = self.values.clone();
        let mut cursor: Vec<usize> = indptr[..n].iter().map(|&p| p + 1).collect();
        let mut pos = vec![ABSENT; n];
        let mut min_pivot = f64::INFINITY;
        for i in 0..n {
            let (pivot, end) = (indptr[i], indptr[i + 1]);
            u[pivot] += alpha;
            for p in pivot..end {
                pos[cols[p]] = p;
            }
            for &k in a.row(i).0.iter().take_while(|&&k| k < i) {
                let c = cursor[k];
                if c == indptr[k + 1] || cols[c] != i {
                    return Err(SparseError::AsymmetricPattern { row: i, col: k });
                }
                cursor[k] = c + 1;
                let l = u[c] / u[indptr[k]];
                for q in c..indptr[k + 1] {
                    let p = pos[cols[q]];
                    if p != ABSENT {
                        u[p] -= l * u[q];
                    }
                }
            }
            for p in pivot..end {
                pos[cols[p]] = ABSENT;
            }
            let row_scale = self.off_max[i].max((self.values[pivot] + alpha).abs()).max(1e-300);
            let floor = 1e-8 * row_scale;
            if u[pivot].abs() < floor {
                u[pivot] = if u[pivot] >= 0.0 { floor } else { -floor };
            }
            min_pivot = min_pivot.min(u[pivot]);
        }
        // Every strictly-upper entry must have met its mirror in a later row.
        if let Some(k) = (0..n).find(|&k| cursor[k] != indptr[k + 1]) {
            return Err(SparseError::AsymmetricPattern { row: k, col: cols[cursor[k]] });
        }
        Ok((u, min_pivot))
    }

    /// The factor with values `u` in 3×3 blocks, `lead` pad rows and
    /// columns before row 0; block row `bi` merges rows `3·bi − lead` to
    /// `3·bi + 2 − lead`, so its first block is the diagonal one.
    fn blocked(&self, u: &[f64], lead: usize) -> Result<BsrMatrix, SparseError> {
        let n = self.off_max.len();
        let nb = (n + lead).div_ceil(3);
        let row = |i: Option<usize>| match i.filter(|&i| i < n) {
            Some(i) => {
                let r = self.indptr[i]..self.indptr[i + 1];
                (&self.indices[r.clone()], &u[r])
            }
            None => (&[][..], &[][..]),
        };
        BsrMatrix::from_block_rows(3 * nb, 3 * nb, |bi| {
            RowBlocks::new([0, 1, 2].map(|k| row((3 * bi + k).checked_sub(lead))), lead)
        })
    }
}

impl Preconditioner for Ic0 {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.solve(r, z);
    }
    fn memory_bytes(&self) -> usize {
        self.u.memory_bytes() + std::mem::size_of_val(self.scale.as_slice())
    }
}

/// Block-Jacobi: the matrix's diagonal blocks — one per partition / "CPU"
/// in the paper — are each factored with IC(0) (on a symmetric block, the
/// operator of PETSc's default ILU(0) sub-preconditioner) and applied in
/// parallel. Off-block coupling is ignored, which is what makes it
/// embarrassingly parallel and also why its iteration count grows with
/// block count.
///
/// A block cut at row `lo` stores its factor in node blocks aligned with
/// the matrix's nodes (`lo % 3` pad rows), so block boundaries need not
/// fall between nodes.
#[derive(Debug)]
pub struct BlockJacobiPrecond {
    /// Block row ranges `(lo, hi)`.
    ranges: Vec<(usize, usize)>,
    factors: Vec<Ic0>,
}

impl BlockJacobiPrecond {
    /// Build from explicit block boundaries. `offsets` must start at 0,
    /// end at `a.nrows()`, and be strictly increasing.
    ///
    /// A block with a structurally or numerically zero row is
    /// [`SparseError::SingularBlock`] — not the historical silent
    /// identity fallback, which masked singular systems behind a
    /// preconditioner that quietly destroyed convergence. A block whose
    /// pattern is not symmetric is [`SparseError::AsymmetricPattern`], in
    /// the matrix's own row and column numbers. When several blocks
    /// fail, the error is the first failing block's in row order.
    pub fn from_offsets<A: DiagonalBlocks + ?Sized>(a: &A, offsets: &[usize]) -> Result<Self, SparseError> {
        let invalid = |reason: String| SparseError::InvalidOffsets { reason };
        if offsets.len() < 2 {
            return Err(invalid(format!("need at least 2 offsets, got {}", offsets.len())));
        }
        if offsets[0] != 0 {
            return Err(invalid(format!("offsets must start at 0, got {}", offsets[0])));
        }
        if offsets[offsets.len() - 1] != a.nrows() {
            return Err(invalid(format!(
                "offsets must end at nrows = {}, got {}",
                a.nrows(),
                offsets[offsets.len() - 1]
            )));
        }
        let ranges: Vec<(usize, usize)> = offsets.windows(2).map(|w| (w[0], w[1])).collect();
        for r in &ranges {
            if r.0 >= r.1 {
                return Err(invalid(format!("empty block {r:?}")));
            }
        }
        let factors: Vec<Result<Ic0, SparseError>> = ranges
            .par_iter()
            .enumerate()
            .map(|(bi, &(lo, hi))| {
                let block = a.principal_submatrix(lo, hi);
                // A zero row makes the block singular; IC(0)'s pivot
                // floors would otherwise paper over it.
                for i in 0..hi - lo {
                    if block.row(i).1.iter().all(|v| v.abs() < 1e-300) {
                        return Err(SparseError::SingularBlock {
                            block: bi,
                            rows: (lo, hi),
                        });
                    }
                }
                Ic0::aligned(&block, lo % 3).map_err(|e| match e {
                    SparseError::AsymmetricPattern { row, col } => SparseError::AsymmetricPattern {
                        row: row + lo,
                        col: col + lo,
                    },
                    e => e,
                })
            })
            .collect();
        let factors = factors.into_iter().collect::<Result<_, _>>()?;
        Ok(BlockJacobiPrecond { ranges, factors })
    }

    /// Evenly split the rows into `nblocks` contiguous blocks (the paper's
    /// "approximately equal numbers of mesh nodes to each CPU"). The block
    /// count is clamped to `1..=a.nrows()`.
    pub fn new<A: DiagonalBlocks + ?Sized>(a: &A, nblocks: usize) -> Result<Self, SparseError> {
        Self::from_offsets(a, &crate::partition::even_offsets(a.nrows(), nblocks))
    }
}

/// A square matrix whose diagonal blocks [`BlockJacobiPrecond`] can
/// cut out and factor: scalar CSR, or node blocks.
pub trait DiagonalBlocks: Sync {
    /// Number of rows.
    fn nrows(&self) -> usize;
    /// Rows and columns `lo..hi` as scalar CSR.
    fn principal_submatrix(&self, lo: usize, hi: usize) -> CsrMatrix;
}

impl DiagonalBlocks for CsrMatrix {
    fn nrows(&self) -> usize {
        self.nrows()
    }
    fn principal_submatrix(&self, lo: usize, hi: usize) -> CsrMatrix {
        self.principal_submatrix(lo, hi)
    }
}

impl DiagonalBlocks for BsrMatrix {
    fn nrows(&self) -> usize {
        self.nrows()
    }
    fn principal_submatrix(&self, lo: usize, hi: usize) -> CsrMatrix {
        self.principal_submatrix(lo, hi)
    }
}

impl Preconditioner for BlockJacobiPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        // Each block solve is independent; in the real-parallel path they
        // run across threads, and in the simulated cluster each rank solves
        // only its own block. The blocks tile `z` in order, so each one
        // solves straight into its own piece.
        let mut rest = z;
        let mut pieces = Vec::with_capacity(self.ranges.len());
        for &(lo, hi) in &self.ranges {
            let (piece, tail) = rest.split_at_mut(hi - lo);
            pieces.push((piece, &r[lo..hi]));
            rest = tail;
        }
        pieces
            .par_iter_mut()
            .zip(self.factors.par_iter())
            .for_each(|((z, r), ic)| ic.solve(r, z));
    }
    fn memory_bytes(&self) -> usize {
        let factors: usize = self.factors.iter().map(Ic0::memory_bytes).sum();
        factors + std::mem::size_of_val(self.ranges.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::TripletBuilder;
    use rand::{Rng, SeedableRng};

    /// A small SPD tridiagonal system.
    fn tridiag(n: usize) -> CsrMatrix {
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
        b.build()
    }

    /// A random sparse SPD matrix with a symmetric pattern, strongly
    /// diagonally dominant (so IC(0) needs no shift), with diagonal
    /// magnitudes spread over three decades (so the scaling matters).
    fn random_spd(n: usize, seed: u64) -> CsrMatrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = TripletBuilder::new(n, n);
        let weight: Vec<f64> = (0..n).map(|_| 10f64.powf(rng.gen_range(0.0..3.0))).collect();
        let mut diag = vec![0.0f64; n];
        for i in 0..n {
            for j in i + 1..n {
                if rng.gen_bool(0.1) {
                    let v = rng.gen_range(-1.0..1.0) * (weight[i] * weight[j]).sqrt();
                    b.add(i, j, v);
                    b.add(j, i, v);
                    diag[i] += 2.0 * v.abs();
                    diag[j] += 2.0 * v.abs();
                }
            }
        }
        for (i, d) in diag.iter().enumerate() {
            b.add(i, i, d + weight[i]);
        }
        b.build()
    }

    /// The unshifted factor's pivots, from the factorization itself.
    fn unshifted_pivots(a: &CsrMatrix) -> Vec<f64> {
        let scale: Vec<f64> = a.diagonal().iter().map(|d| 1.0 / d.abs().sqrt()).collect();
        let upper = ScaledUpper::new(a, &scale);
        let (u, _) = upper.factor(a, 0.0).expect("symmetric pattern");
        (0..a.nrows()).map(|i| u[upper.indptr[i]]).collect()
    }

    #[test]
    fn identity_passthrough() {
        let p = IdentityPrecond;
        let r = vec![1.0, -2.0, 3.0];
        let mut z = vec![0.0; 3];
        p.apply(&r, &mut z);
        assert_eq!(z, r);
    }

    #[test]
    fn jacobi_divides_by_diagonal() {
        let a = tridiag(4);
        let p = JacobiPrecond::new(&a);
        let r = vec![2.0, 4.0, 6.0, 8.0];
        let mut z = vec![0.0; 4];
        p.apply(&r, &mut z);
        assert_eq!(z, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn ic0_reproduces_the_scaled_matrix_on_its_pattern() {
        // IC(0)'s defining property: (Uᵀ D⁻¹ U)_ij = (S A S)_ij for every
        // (i, j) in the pattern of A (fill outside it is dropped).
        let n = 60;
        let a = random_spd(n, 27);
        let ic = Ic0::new(&a).unwrap();
        assert!(unshifted_pivots(&a).iter().all(|&d| d >= 1e-2), "the fixture must not shift");
        let (u, _) = ic.scalar_factor();
        let mut product = vec![0.0; n * n];
        for k in 0..n {
            let (cols, vals) = u.row(k);
            assert_eq!(cols[0], k, "row {k} starts at its pivot");
            for (&i, &uki) in cols.iter().zip(vals) {
                for (&j, &ukj) in cols.iter().zip(vals) {
                    product[i * n + j] += uki * ukj / vals[0];
                }
            }
        }
        let mut checked = 0;
        for i in 0..n {
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                let scaled = v * ic.scale[i] * ic.scale[j];
                let got = product[i * n + j];
                assert!((got - scaled).abs() <= 1e-12 * scaled.abs().max(1.0), "({i}, {j}): {got} vs {scaled}");
                checked += 1;
            }
        }
        assert_eq!(checked, a.nnz());
    }

    #[test]
    fn ic0_exact_for_tridiagonal() {
        // A tridiagonal matrix has no fill, so IC(0) is its Cholesky
        // factorization and the solve is exact.
        let a = tridiag(8);
        let ic = Ic0::new(&a).unwrap();
        let x_true: Vec<f64> = (0..8).map(|i| (i as f64) - 3.5).collect();
        let mut b = vec![0.0; 8];
        a.spmv(&x_true, &mut b);
        let mut x = vec![0.0; 8];
        ic.solve(&b, &mut x);
        for (a, b) in x.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn ic0_apply_is_symmetric() {
        // yᵀ M⁻¹ x = xᵀ M⁻¹ y: what makes it a valid CG preconditioner.
        let n = 80;
        let ic = Ic0::new(&random_spd(n, 3)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for _ in 0..5 {
            let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let y: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let (mut mx, mut my) = (vec![0.0; n], vec![0.0; n]);
            ic.solve(&x, &mut mx);
            ic.solve(&y, &mut my);
            let ymx: f64 = y.iter().zip(&mx).map(|(a, b)| a * b).sum();
            let xmy: f64 = x.iter().zip(&my).map(|(a, b)| a * b).sum();
            assert!((ymx - xmy).abs() <= 1e-12 * ymx.abs().max(1.0), "{ymx} vs {xmy}");
        }
    }

    #[test]
    fn shift_loop_fires_on_a_high_contrast_block() {
        // A soft spring (1e-6) to ground in series with a stiff one (1):
        // SPD, but the scaled second pivot is ≈ 1e-6, far below the 0.01
        // floor, so the factorization is retried with a diagonal shift.
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 0, 1.0 + 1e-6);
        b.add(0, 1, -1.0);
        b.add(1, 0, -1.0);
        b.add(1, 1, 1.0);
        let a = b.build();
        assert!(unshifted_pivots(&a)[1] < 1e-2);
        let ic = Ic0::new(&a).unwrap();
        let (u, _) = ic.scalar_factor();
        let pivots: Vec<f64> = (0..2).map(|i| u.row(i).1[0]).collect();
        assert!(pivots.iter().all(|&d| d >= 1e-2), "shifted pivots {pivots:?}");
        let mut z = vec![0.0; 2];
        ic.solve(&[1.0, -1.0], &mut z);
        assert!(z.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn asymmetric_pattern_is_a_typed_error() {
        // (1, 2) stored without (2, 1): caught when row 1 is left with an
        // unconsumed entry; (3, 0) without (0, 3): caught at row 3.
        let mut upper_only = TripletBuilder::new(3, 3);
        let mut lower_only = TripletBuilder::new(4, 4);
        for i in 0..3 {
            upper_only.add(i, i, 4.0);
        }
        for i in 0..4 {
            lower_only.add(i, i, 4.0);
        }
        upper_only.add(1, 2, -1.0);
        lower_only.add(3, 0, -1.0);
        let e = Ic0::new(&upper_only.build()).unwrap_err();
        assert_eq!(e, SparseError::AsymmetricPattern { row: 1, col: 2 });
        let lower_only = lower_only.build();
        assert_eq!(Ic0::new(&lower_only).unwrap_err(), SparseError::AsymmetricPattern { row: 3, col: 0 });
        // Inside a block-Jacobi block the position is the matrix's own.
        let mut big = TripletBuilder::new(6, 6);
        for i in 0..6 {
            big.add(i, i, 4.0);
        }
        big.add(5, 2, -1.0);
        let e = BlockJacobiPrecond::from_offsets(&big.build(), &[0, 2, 6]).unwrap_err();
        assert_eq!(e, SparseError::AsymmetricPattern { row: 5, col: 2 });
        let e = Ic0::new(&CsrMatrix::from_raw(1, 2, vec![0, 1], vec![0], vec![1.0]).unwrap());
        assert!(matches!(e, Err(SparseError::DimensionMismatch { .. })), "{e:?}");
    }

    #[test]
    fn block_jacobi_solves_in_place_what_its_blocks_solve_alone() {
        let a = tridiag(23);
        let r: Vec<f64> = (0..23).map(|i| (i as f64 * 0.7).sin()).collect();
        let p = BlockJacobiPrecond::from_offsets(&a, &[0, 5, 6, 16, 23]).unwrap();
        // Stale output must be overwritten everywhere.
        let mut z = vec![f64::NAN; 23];
        p.apply(&r, &mut z);
        for (&(lo, hi), ic) in p.ranges.iter().zip(&p.factors) {
            let mut alone = vec![0.0; hi - lo];
            ic.solve(&r[lo..hi], &mut alone);
            for (a, b) in z[lo..hi].iter().zip(&alone) {
                assert_eq!(a.to_bits(), b.to_bits(), "block ({lo}, {hi})");
            }
        }
    }

    #[test]
    fn block_jacobi_single_block_is_exact_on_a_tridiagonal_matrix() {
        // One IC(0) block of a fill-free matrix is its Cholesky factor.
        let a = tridiag(10);
        let p = BlockJacobiPrecond::new(&a, 1).unwrap();
        let x_true: Vec<f64> = (0..10).map(|i| i as f64 * 0.1).collect();
        let mut b = vec![0.0; 10];
        a.spmv(&x_true, &mut b);
        let mut x = vec![0.0; 10];
        p.apply(&b, &mut x);
        for (a, b) in x.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn block_jacobi_many_blocks_is_approximate_but_spd_like() {
        let a = tridiag(16);
        let p = BlockJacobiPrecond::new(&a, 4).unwrap();
        assert_eq!(p.ranges.len(), 4);
        let r = vec![1.0; 16];
        let mut z = vec![0.0; 16];
        p.apply(&r, &mut z);
        // Not exact (coupling ignored) but positive and bounded.
        assert!(z.iter().all(|&v| v > 0.0 && v < 100.0));
    }

    #[test]
    fn block_offsets_respected() {
        let a = tridiag(10);
        let p = BlockJacobiPrecond::from_offsets(&a, &[0, 3, 10]).unwrap();
        assert_eq!(p.ranges, vec![(0, 3), (3, 10)]);
    }

    #[test]
    fn bad_offsets_are_rejected() {
        let a = tridiag(4);
        let e = BlockJacobiPrecond::from_offsets(&a, &[0, 5]);
        assert!(matches!(e, Err(SparseError::InvalidOffsets { .. })), "{e:?}");
        let e = BlockJacobiPrecond::from_offsets(&a, &[1, 4]);
        assert!(matches!(e, Err(SparseError::InvalidOffsets { .. })));
        let e = BlockJacobiPrecond::from_offsets(&a, &[0, 2, 2, 4]);
        assert!(matches!(e, Err(SparseError::InvalidOffsets { .. })));
    }

    #[test]
    fn singular_block_surfaces_as_error_not_identity() {
        // A diagonal matrix of 2s whose listed rows are entirely zero.
        let zero_rows = |n: usize, zero: &[usize]| {
            let mut b = TripletBuilder::new(n, n);
            for i in 0..n {
                b.add(i, i, if zero.contains(&i) { 0.0 } else { 2.0 });
            }
            b.build()
        };
        // Row 2 is zero: block (2..4) is singular. Before the fix this
        // produced a silent identity factor.
        let e = BlockJacobiPrecond::from_offsets(&zero_rows(4, &[2]), &[0, 2, 4]).unwrap_err();
        assert_eq!(e, SparseError::SingularBlock { block: 1, rows: (2, 4) });
        // Rows 1 and 4 are zero: blocks 0 and 2 both fail, and the error
        // names the lower one whatever order the blocks factor in.
        let e = BlockJacobiPrecond::from_offsets(&zero_rows(6, &[1, 4]), &[0, 2, 4, 6]).unwrap_err();
        assert_eq!(e, SparseError::SingularBlock { block: 0, rows: (0, 2) });
    }
}
