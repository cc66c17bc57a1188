//! Preconditioners.
//!
//! The paper solves its FEM system "using the Generalized Minimal Residual
//! (GMRES) solver with block Jacobi preconditioning" (PETSc's default
//! block-Jacobi applies one block per process, ILU(0) inside each block).
//! On the symmetric stiffness matrix, ILU(0) and IC(0) are the same
//! operator, so the blocks here are factored with IC(0), which stores one
//! triangle instead of two; point Jacobi and identity serve the ablations.

use crate::csr::CsrMatrix;
use crate::dense::DenseLu;
use crate::error::SparseError;
use rayon::prelude::*;

/// Application of `z = M⁻¹ r` for some preconditioning operator `M`.
pub trait Preconditioner: Send + Sync {
    /// Apply `z = M⁻¹ r`.
    fn apply(&self, r: &[f64], z: &mut [f64]);
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
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
    fn name(&self) -> &'static str {
        "none"
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
    fn name(&self) -> &'static str {
        "jacobi"
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
#[derive(Debug, Clone)]
pub struct Ic0 {
    /// The factor `U`: row `i` holds the pivot `u_ii` first, then `u_ij`
    /// for the columns `j > i` of row `i` of `A`.
    u: CsrMatrix,
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
                let u = CsrMatrix::from_raw(n, n, upper.indptr, upper.indices, values)?;
                return Ok(Ic0 { u, scale });
            }
            alpha = if alpha == 0.0 { 0.02 } else { alpha * 4.0 };
        }
    }

    /// Dimension of the factored matrix.
    fn dim(&self) -> usize {
        self.scale.len()
    }

    /// Solve `M z = r` with `M = S⁻¹ Uᵀ D⁻¹ U S⁻¹`:
    /// `z = S · (Uᵀ D⁻¹ U)⁻¹ · (S r)`. The forward sweep scatters row `i`
    /// of `U` (column `i` of `Uᵀ`) once its unknown is final; the backward
    /// sweep gathers it. Each factor entry is read once per sweep.
    pub fn solve(&self, r: &[f64], z: &mut [f64]) {
        let n = self.dim();
        debug_assert!(r.len() == n && z.len() == n);
        let (indptr, cols, vals) = (self.u.indptr(), self.u.indices(), self.u.values());
        for ((zi, ri), si) in z.iter_mut().zip(r).zip(&self.scale) {
            *zi = ri * si;
        }
        // Forward: (Uᵀ D⁻¹) w = S r.
        for i in 0..n {
            let pivot = indptr[i];
            let wi_over_d = z[i] / vals[pivot];
            for p in pivot + 1..indptr[i + 1] {
                z[cols[p]] -= vals[p] * wi_over_d;
            }
        }
        // Backward: U v = w, then z = S v.
        for i in (0..n).rev() {
            let pivot = indptr[i];
            let mut acc = z[i];
            for p in pivot + 1..indptr[i + 1] {
                acc -= vals[p] * z[cols[p]];
            }
            z[i] = acc / vals[pivot];
        }
        for (zi, si) in z.iter_mut().zip(&self.scale) {
            *zi *= si;
        }
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
}

impl Preconditioner for Ic0 {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.solve(r, z);
    }
    fn name(&self) -> &'static str {
        "ic0"
    }
    fn memory_bytes(&self) -> usize {
        self.u.memory_bytes() + std::mem::size_of_val(self.scale.as_slice())
    }
}

/// How each diagonal block of the block-Jacobi preconditioner is solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockSolve {
    /// Exact dense LU (only sensible for small blocks).
    DenseLu,
    /// IC(0) on the block: on a symmetric block, the operator of PETSc's
    /// default ILU(0) sub-preconditioner.
    Ic0,
}

enum BlockFactor {
    Dense(DenseLu),
    Ic(Ic0),
}

/// Block-Jacobi: the matrix's diagonal blocks — one per partition / "CPU"
/// in the paper — are factorized independently and applied in parallel.
/// Off-block coupling is ignored, which is what makes it embarrassingly
/// parallel and also why its iteration count grows with block count.
pub struct BlockJacobiPrecond {
    /// Block row ranges `(lo, hi)`.
    ranges: Vec<(usize, usize)>,
    factors: Vec<BlockFactor>,
    /// How many blocks needed a diagonal-shift retry to factorize.
    shifted_blocks: usize,
}

impl std::fmt::Debug for BlockJacobiPrecond {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockJacobiPrecond")
            .field("ranges", &self.ranges)
            .field("shifted_blocks", &self.shifted_blocks)
            .finish_non_exhaustive()
    }
}

impl BlockJacobiPrecond {
    /// Build from explicit block boundaries. `offsets` must start at 0,
    /// end at `a.nrows()`, and be strictly increasing.
    ///
    /// A singular diagonal block surfaces as
    /// [`SparseError::SingularBlock`]: a dense block that fails LU is
    /// retried once with a small diagonal shift (reported via
    /// [`num_shifted_blocks`](Self::num_shifted_blocks)); if the shifted
    /// block still fails — or the block has a structurally zero row — the
    /// error is returned instead of the historical silent identity
    /// fallback, which masked singular systems behind a preconditioner
    /// that quietly destroyed convergence. An IC(0) block whose pattern
    /// is not symmetric is [`SparseError::AsymmetricPattern`], in the
    /// matrix's own row and column numbers.
    pub fn from_offsets(
        a: &CsrMatrix,
        offsets: &[usize],
        solve: BlockSolve,
    ) -> Result<Self, SparseError> {
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
        let factors: Vec<Result<(BlockFactor, bool), SparseError>> = ranges
            .par_iter()
            .enumerate()
            .map(|(bi, &(lo, hi))| {
                let block = a.principal_submatrix(lo, hi);
                let singular = |shifted| SparseError::SingularBlock {
                    block: bi,
                    rows: (lo, hi),
                    shifted,
                };
                // A structurally/numerically zero row makes the block
                // singular regardless of the factorization used (IC(0)'s
                // pivot floors would otherwise paper over it).
                let n = hi - lo;
                for i in 0..n {
                    let (_, vals) = block.row(i);
                    if vals.iter().all(|v| v.abs() < 1e-300) {
                        return Err(singular(false));
                    }
                }
                match solve {
                    BlockSolve::DenseLu => {
                        let mut dense = vec![0.0; n * n];
                        let mut max_abs = 0.0f64;
                        for i in 0..n {
                            let (cols, vals) = block.row(i);
                            for (&c, &v) in cols.iter().zip(vals) {
                                dense[i * n + c] = v;
                                max_abs = max_abs.max(v.abs());
                            }
                        }
                        if let Some(lu) = DenseLu::factorize(&dense, n) {
                            return Ok((BlockFactor::Dense(lu), false));
                        }
                        // One retry with a relative diagonal shift, the
                        // standard remedy for a numerically singular but
                        // structurally sound block.
                        let alpha = 1e-8 * max_abs;
                        if alpha <= 0.0 {
                            return Err(singular(false));
                        }
                        for i in 0..n {
                            dense[i * n + i] += alpha;
                        }
                        match DenseLu::factorize(&dense, n) {
                            Some(lu) => Ok((BlockFactor::Dense(lu), true)),
                            None => Err(singular(true)),
                        }
                    }
                    BlockSolve::Ic0 => match Ic0::new(&block) {
                        Ok(ic) => Ok((BlockFactor::Ic(ic), false)),
                        Err(SparseError::AsymmetricPattern { row, col }) => {
                            Err(SparseError::AsymmetricPattern { row: row + lo, col: col + lo })
                        }
                        Err(e) => Err(e),
                    },
                }
            })
            .collect();
        let mut shifted_blocks = 0;
        let mut out = Vec::with_capacity(factors.len());
        for f in factors {
            let (factor, shifted) = f?;
            shifted_blocks += usize::from(shifted);
            out.push(factor);
        }
        Ok(BlockJacobiPrecond { ranges, factors: out, shifted_blocks })
    }

    /// Evenly split the rows into `nblocks` contiguous blocks (the paper's
    /// "approximately equal numbers of mesh nodes to each CPU"). The block
    /// count is clamped to the row count when it exceeds it.
    pub fn new(a: &CsrMatrix, nblocks: usize, solve: BlockSolve) -> Result<Self, SparseError> {
        let offsets = crate::partition::even_offsets(a.nrows(), nblocks);
        Self::from_offsets(a, &offsets, solve)
    }

    /// How many blocks required a diagonal-shift retry during
    /// factorization (0 for a cleanly factorizable matrix).
    pub fn num_shifted_blocks(&self) -> usize {
        self.shifted_blocks
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
        pieces.par_iter_mut().zip(self.factors.par_iter()).for_each(|((z, r), factor)| match factor {
            BlockFactor::Dense(lu) => lu.solve(r, z),
            BlockFactor::Ic(ic) => ic.solve(r, z),
        });
    }
    fn name(&self) -> &'static str {
        "block-jacobi"
    }
    fn memory_bytes(&self) -> usize {
        let factors: usize = self
            .factors
            .iter()
            .map(|f| match f {
                BlockFactor::Dense(lu) => lu.memory_bytes(),
                BlockFactor::Ic(ic) => ic.memory_bytes(),
            })
            .sum();
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
        let mut product = vec![0.0; n * n];
        for k in 0..n {
            let (cols, vals) = ic.u.row(k);
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
        let pivots: Vec<f64> = (0..2).map(|i| ic.u.row(i).1[0]).collect();
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
        let e = BlockJacobiPrecond::from_offsets(&big.build(), &[0, 2, 6], BlockSolve::Ic0).unwrap_err();
        assert_eq!(e, SparseError::AsymmetricPattern { row: 5, col: 2 });
        let e = Ic0::new(&CsrMatrix::from_raw(1, 2, vec![0, 1], vec![0], vec![1.0]).unwrap());
        assert!(matches!(e, Err(SparseError::DimensionMismatch { .. })), "{e:?}");
    }

    #[test]
    fn block_jacobi_solves_in_place_what_its_blocks_solve_alone() {
        let a = tridiag(23);
        let r: Vec<f64> = (0..23).map(|i| (i as f64 * 0.7).sin()).collect();
        for solve in [BlockSolve::DenseLu, BlockSolve::Ic0] {
            let p = BlockJacobiPrecond::from_offsets(&a, &[0, 5, 6, 16, 23], solve).unwrap();
            // Stale output must be overwritten everywhere.
            let mut z = vec![f64::NAN; 23];
            p.apply(&r, &mut z);
            for (&(lo, hi), factor) in p.ranges.iter().zip(&p.factors) {
                let mut alone = vec![0.0; hi - lo];
                match factor {
                    BlockFactor::Dense(lu) => lu.solve(&r[lo..hi], &mut alone),
                    BlockFactor::Ic(ic) => ic.solve(&r[lo..hi], &mut alone),
                }
                for (a, b) in z[lo..hi].iter().zip(&alone) {
                    assert_eq!(a.to_bits(), b.to_bits(), "block ({lo}, {hi})");
                }
            }
        }
    }

    #[test]
    fn block_jacobi_single_block_dense_is_exact() {
        let a = tridiag(10);
        let p = BlockJacobiPrecond::new(&a, 1, BlockSolve::DenseLu).unwrap();
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
        let p = BlockJacobiPrecond::new(&a, 4, BlockSolve::DenseLu).unwrap();
        assert_eq!(p.ranges.len(), 4);
        assert_eq!(p.num_shifted_blocks(), 0);
        let r = vec![1.0; 16];
        let mut z = vec![0.0; 16];
        p.apply(&r, &mut z);
        // Not exact (coupling ignored) but positive and bounded.
        assert!(z.iter().all(|&v| v > 0.0 && v < 100.0));
    }

    #[test]
    fn block_offsets_respected() {
        let a = tridiag(10);
        let p = BlockJacobiPrecond::from_offsets(&a, &[0, 3, 10], BlockSolve::Ic0).unwrap();
        assert_eq!(p.ranges, vec![(0, 3), (3, 10)]);
    }

    #[test]
    fn bad_offsets_are_rejected() {
        let a = tridiag(4);
        let e = BlockJacobiPrecond::from_offsets(&a, &[0, 5], BlockSolve::Ic0);
        assert!(matches!(e, Err(SparseError::InvalidOffsets { .. })), "{e:?}");
        let e = BlockJacobiPrecond::from_offsets(&a, &[1, 4], BlockSolve::Ic0);
        assert!(matches!(e, Err(SparseError::InvalidOffsets { .. })));
        let e = BlockJacobiPrecond::from_offsets(&a, &[0, 2, 2, 4], BlockSolve::Ic0);
        assert!(matches!(e, Err(SparseError::InvalidOffsets { .. })));
    }

    #[test]
    fn singular_block_surfaces_as_error_not_identity() {
        // Row 2 is entirely zero: block (2..4) is singular. Before the
        // fix this produced a silent identity factor.
        let mut b = TripletBuilder::new(4, 4);
        b.add(0, 0, 2.0);
        b.add(1, 1, 2.0);
        b.add(2, 2, 0.0);
        b.add(3, 3, 2.0);
        let a = b.build();
        for solve in [BlockSolve::DenseLu, BlockSolve::Ic0] {
            let e = BlockJacobiPrecond::from_offsets(&a, &[0, 2, 4], solve);
            match e {
                Err(SparseError::SingularBlock { block, rows, .. }) => {
                    assert_eq!(block, 1);
                    assert_eq!(rows, (2, 4));
                }
                other => panic!("expected SingularBlock, got {other:?}"),
            }
        }
    }

    #[test]
    fn near_singular_dense_block_recovers_via_shift() {
        // A rank-deficient 2×2 block (duplicate rows) that is dense-LU
        // singular but has non-zero entries: the one-shot diagonal shift
        // must rescue it and be reported.
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 0, 1.0);
        b.add(0, 1, 1.0);
        b.add(1, 0, 1.0);
        b.add(1, 1, 1.0);
        let a = b.build();
        let p = BlockJacobiPrecond::from_offsets(&a, &[0, 2], BlockSolve::DenseLu).unwrap();
        assert_eq!(p.num_shifted_blocks(), 1);
        let mut z = vec![0.0; 2];
        p.apply(&[1.0, 1.0], &mut z);
        assert!(z.iter().all(|v| v.is_finite()));
    }
}
