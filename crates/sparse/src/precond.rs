//! Preconditioners.
//!
//! The paper solves its FEM system "using the Generalized Minimal Residual
//! (GMRES) solver with block Jacobi preconditioning" (PETSc's default
//! block-Jacobi applies one block per process, ILU(0) inside each block).
//! On the symmetric stiffness matrix, ILU(0) and IC(0) are the same
//! operator, so the blocks here are factored with IC(0), which stores one
//! triangle instead of two; point Jacobi and identity serve the ablations.
//!
//! The system is made of 3×3 node blocks ([`BsrMatrix`], PETSc's BAIJ
//! with block size 3), and so is everything here: block-Jacobi cuts its
//! blocks between nodes, as the paper sends "approximately equal numbers
//! of mesh nodes to each CPU", and IC(0) runs the scalar recurrence over
//! every entry of every stored block (the filled node-block pattern),
//! in place on a copy of the upper blocks read straight from the matrix
//! (DESIGN §3, "Node blocks").

use crate::bsr::{Block, BsrMatrix, FULL};
use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::partition::{check_node_offsets, check_node_range};
use rayon::prelude::*;
use std::ops::Range;

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

/// The mask of a diagonal factor block: its upper triangle.
const UPPER: u16 = 0b1_0011_0111;

/// IC(0): incomplete Cholesky with zero fill-in, in the root-free form
/// `M = Uᵀ D⁻¹ U` (`D = diag(U)`) on the upper triangle of the filled
/// node-block pattern of `A`: every entry of every stored 3×3 block,
/// zeros included.
///
/// It factors the symmetrically scaled `S A S + αI`
/// (`S = diag(1/√|a_ii|)`): without the scaling an incomplete
/// factorization is numerically unstable on high-material-contrast
/// elasticity matrices and the resulting preconditioner stalls the Krylov
/// solver. On a symmetric matrix this is the operator ILU(0) computes —
/// its unit lower factor is `Uᵀ D⁻¹` — from one stored triangle.
#[derive(Debug, Clone)]
pub struct Ic0 {
    /// The factor `U`: block row `bi` holds its diagonal block first —
    /// row `k`'s pivot at `(k, k)`, then `u_ij` for the columns right of
    /// it, zeros below the diagonal that are never read — then one full
    /// block per stored block `(bi, bj)`, `bj > bi`, of `A`.
    u: BsrMatrix,
    /// Symmetric scaling `S` applied before factorization.
    scale: Vec<f64>,
}

impl Ic0 {
    /// Factorize the diagonal block of `a` on scalar rows and columns
    /// `rows`, with an adaptive diagonal shift: IC(0) of an SPD matrix can
    /// still produce tiny or negative pivots when material contrast is
    /// high; following PETSc's positive-definite shift strategy, the
    /// scaled block is refactored with a growing `αI` until all pivots
    /// are healthy. The factor reads the block's 3×3 node blocks in place
    /// in `a`; `0..a.nrows()` factors the whole matrix.
    ///
    /// `a` must be square, and `rows` a non-empty range of whole nodes
    /// ([`SparseError::InvalidOffsets`] otherwise). The block must have a
    /// symmetric block pattern, as every principal node block of a
    /// stiffness matrix does; a stored block without its mirror is
    /// [`SparseError::AsymmetricPattern`] at the block's first stored
    /// entry, in `a`'s numbering. A row with no entry of magnitude 1e-300
    /// or more in the block is [`SparseError::SingularBlock`] (block 0,
    /// `rows`): IC(0)'s pivot floors would otherwise paper over it.
    pub fn new(a: &BsrMatrix, rows: Range<usize>) -> Result<Self, SparseError> {
        if a.ncols() != a.nrows() {
            return Err(SparseError::DimensionMismatch {
                what: "ic0 columns",
                expected: a.nrows(),
                got: a.ncols(),
            });
        }
        check_node_range(a.nrows(), &rows)?;
        let (lo, hi) = (rows.start / 3, rows.end / 3);
        let scale = scaling(a, lo, hi);
        let mut alpha = 0.0;
        loop {
            let mut upper = ScaledUpper::new(a, lo, hi, &scale)?;
            let min_pivot = upper.factor(a, lo, alpha)?;
            // Scaled diagonal is ~1, so pivots ≥ 0.01 mean a stable factor.
            if min_pivot >= 1e-2 || alpha > 1.0 {
                let ScaledUpper { indptr, indices, blocks, mask, .. } = upper;
                let u =
                    BsrMatrix::from_raw(scale.len(), scale.len(), indptr, indices, blocks, mask)?;
                return Ok(Ic0 { u, scale });
            }
            alpha = if alpha == 0.0 { 0.02 } else { alpha * 4.0 };
        }
    }

    /// Solve `M z = r` with `M = S⁻¹ Uᵀ D⁻¹ U S⁻¹`:
    /// `z = S · (Uᵀ D⁻¹ U)⁻¹ · (S r)`. The forward sweep scatters row `i`
    /// of `U` (column `i` of `Uᵀ`) once its unknown is final; the backward
    /// sweep gathers it. Each factor block is read once per sweep.
    ///
    /// Both sweeps do the scalar sweeps' arithmetic in their order: each
    /// `z[j]` takes its forward updates in ascending source row, and each
    /// backward row subtracts its terms in ascending column.
    pub fn solve(&self, r: &[f64], z: &mut [f64]) {
        debug_assert!(r.len() == self.scale.len() && z.len() == self.scale.len());
        for ((zi, ri), si) in z.iter_mut().zip(r).zip(&self.scale) {
            *zi = ri * si;
        }
        // Forward: (Uᵀ D⁻¹) w = S r.
        for bi in 0..self.u.block_rows() {
            let (cols, blocks, _) = self.u.block_row(bi);
            let d = &blocks[0];
            let mut w = [0.0; 3];
            for k in 0..3 {
                w[k] = z[3 * bi + k] / d[4 * k];
                for l in k + 1..3 {
                    z[3 * bi + l] -= d[3 * k + l] * w[k];
                }
            }
            for (&j, b) in cols[1..].iter().zip(&blocks[1..]) {
                scatter(b, &w, &mut z[3 * j as usize..3 * j as usize + 3]);
            }
        }
        // Backward: U v = w, then z = S v.
        for bi in (0..self.u.block_rows()).rev() {
            let (cols, blocks, _) = self.u.block_row(bi);
            let d = &blocks[0];
            for k in (0..3).rev() {
                let mut acc = z[3 * bi + k];
                for l in k + 1..3 {
                    acc -= d[3 * k + l] * z[3 * bi + l];
                }
                for (&j, b) in cols[1..].iter().zip(&blocks[1..]) {
                    acc = gather(b, k, &z[3 * j as usize..3 * j as usize + 3], acc);
                }
                z[3 * bi + k] = acc / d[4 * k];
            }
        }
        for (zi, si) in z.iter_mut().zip(&self.scale) {
            *zi *= si;
        }
    }
}

/// `S = diag(1/√|a_ii|)` on block rows `lo..hi` of `a` (1 where the
/// diagonal is zero).
fn scaling(a: &BsrMatrix, lo: usize, hi: usize) -> Vec<f64> {
    let mut scale = Vec::with_capacity(3 * (hi - lo));
    for bi in lo..hi {
        let (cols, blocks, _) = a.block_row(bi);
        let d = cols.binary_search_by_key(&bi, |&j| j as usize).map_or([0.0; 9], |q| blocks[q]);
        scale.extend((0..3).map(|k| {
            if d[4 * k].abs() > 1e-300 {
                1.0 / d[4 * k].abs().sqrt()
            } else {
                1.0
            }
        }));
    }
    scale
}

/// The forward sweep's updates from one off-diagonal block of `U` to the
/// three unknowns `z` of its block column: `z[l] −= b[k][l] · w[k]` for
/// `k = 0, 1, 2` in turn.
#[inline]
fn scatter(b: &Block, w: &[f64; 3], z: &mut [f64]) {
    for l in 0..3 {
        z[l] = z[l] - b[l] * w[0] - b[3 + l] * w[1] - b[6 + l] * w[2];
    }
}

/// The backward sweep's terms of row `k` of one off-diagonal block of
/// `U`, against the three unknowns `z` of its block column, subtracted
/// from `acc` in ascending column.
#[inline]
fn gather(b: &Block, k: usize, z: &[f64], acc: f64) -> f64 {
    acc - b[3 * k] * z[0] - b[3 * k + 1] * z[1] - b[3 * k + 2] * z[2]
}

/// The upper blocks of `S A S` on one diagonal block of `A`, the
/// diagonal block first in every block row (stored even where `A` has
/// none) with its lower entries zeroed, plus, per scalar row, the scaled
/// diagonal and the largest off-diagonal magnitude over the *whole* row
/// of the block: the pivot floors are relative to the problem's scale,
/// or a badly scaled system produces near-singular factors whose inverse
/// destroys the preconditioned residual norm. The factorization then
/// runs in place on these blocks.
struct ScaledUpper {
    indptr: Vec<usize>,
    /// Block columns, numbered from the diagonal block's first.
    indices: Vec<u32>,
    blocks: Vec<Block>,
    mask: Vec<u16>,
    diag: Vec<f64>,
    off_max: Vec<f64>,
}

impl ScaledUpper {
    /// One pass over block rows `lo..hi` of `a`, reading the blocks in
    /// columns `lo..hi`. A row with no entry of magnitude 1e-300 or more
    /// there is [`SparseError::SingularBlock`].
    fn new(a: &BsrMatrix, lo: usize, hi: usize, scale: &[f64]) -> Result<Self, SparseError> {
        let nb = hi - lo;
        let mut indptr = Vec::with_capacity(nb + 1);
        indptr.push(0);
        let (mut indices, mut blocks, mut mask) = (Vec::new(), Vec::new(), Vec::new());
        let (mut diag, mut off_max) = (Vec::with_capacity(3 * nb), Vec::with_capacity(3 * nb));
        for bi in 0..nb {
            let (cols, row, _) = a.block_row(lo + bi);
            let first = cols.partition_point(|&j| (j as usize) < lo);
            let last = cols.partition_point(|&j| (j as usize) < hi);
            let s = &scale[3 * bi..3 * bi + 3];
            let mut largest = [0.0f64; 3];
            let mut nonzero = [false; 3];
            let mut d = [0.0; 9];
            indices.push(bi as u32);
            blocks.push(d);
            mask.push(UPPER);
            for (&j, b) in cols[first..last].iter().zip(&row[first..last]) {
                let bj = j as usize - lo;
                let sj = &scale[3 * bj..3 * bj + 3];
                let mut sb = [0.0; 9];
                for k in 0..3 {
                    for l in 0..3 {
                        let v = b[3 * k + l];
                        sb[3 * k + l] = v * (s[k] * sj[l]);
                        nonzero[k] |= v.abs() >= 1e-300;
                        if bj != bi || k != l {
                            largest[k] = largest[k].max(sb[3 * k + l].abs());
                        }
                    }
                }
                if bj == bi {
                    for k in 0..3 {
                        d[3 * k + k..3 * k + 3].copy_from_slice(&sb[3 * k + k..3 * k + 3]);
                    }
                    blocks[indptr[bi]] = d;
                } else if bj > bi {
                    indices.push(bj as u32);
                    blocks.push(sb);
                    mask.push(FULL);
                }
            }
            if nonzero.contains(&false) {
                return Err(SparseError::SingularBlock { block: 0, rows: (3 * lo, 3 * hi) });
            }
            diag.extend((0..3).map(|k| d[4 * k]));
            off_max.extend(largest);
            indptr.push(indices.len());
        }
        Ok(ScaledUpper { indptr, indices, blocks, mask, diag, off_max })
    }

    /// One factorization attempt of `S A S + αI`, in place. Scalar row
    /// `i` subtracts `(u_ki / u_kk) ·` (row `k` from column `i` on) for
    /// every `k < i` in the pattern, in ascending `k`, on row `i`'s own
    /// pattern, then floors its pivot. The rows of a block row take the
    /// updates of earlier block rows together, one 3×3 block at a time,
    /// and then those of each other in turn.
    ///
    /// The earlier block rows `bk` that update block row `bi` are the
    /// lower blocks of `a`'s block row `bi`; block `(bk, bi)` of `U` sits
    /// at `cursor[bk]`, as the blocks of a finished row are consumed in
    /// ascending column order. Returns the smallest pivot.
    fn factor(&mut self, a: &BsrMatrix, lo: usize, alpha: f64) -> Result<f64, SparseError> {
        const ABSENT: usize = usize::MAX;
        let nb = self.indptr.len() - 1;
        let mut cursor: Vec<usize> = self.indptr[..nb].iter().map(|&p| p + 1).collect();
        let mut pos = vec![ABSENT; nb];
        let mut min_pivot = f64::INFINITY;
        for bi in 0..nb {
            let (start, end) = (self.indptr[bi], self.indptr[bi + 1]);
            for p in start..end {
                pos[self.indices[p] as usize] = p;
            }
            for k in 0..3 {
                self.blocks[start][4 * k] += alpha;
            }
            let (cols, ..) = a.block_row(lo + bi);
            let first = cols.partition_point(|&j| (j as usize) < lo);
            for &j in cols[first..].iter().take_while(|&&j| (j as usize) < lo + bi) {
                let bk = j as usize - lo;
                let c = cursor[bk];
                let next = (c < self.indptr[bk + 1]).then(|| self.indices[c] as usize);
                if next != Some(bi) {
                    // Block (bk, next) has no mirror if it lies left of bi;
                    // otherwise block (bi, bk) has none.
                    let (row, col) = match next {
                        Some(j) if j < bi => a.first_entry(lo + bk, lo + j),
                        _ => a.first_entry(lo + bi, lo + bk),
                    };
                    return Err(SparseError::AsymmetricPattern { row, col });
                }
                cursor[bk] = c + 1;
                let (dk, b) = (self.blocks[self.indptr[bk]], self.blocks[c]);
                // l[kk][ii] = u(3bk + kk, 3bi + ii) / u(3bk + kk, 3bk + kk).
                let l: Block = std::array::from_fn(|e| b[e] / dk[4 * (e / 3)]);
                // Row ii of bi −= l[kk][ii] · row kk of bk, block by block
                // from (bk, bi) on, wherever bi holds the block; (bk, bi)
                // itself lands on bi's diagonal block, right of each pivot.
                for q in c..self.indptr[bk + 1] {
                    let p = pos[self.indices[q] as usize];
                    if p != ABSENT {
                        let uq = self.blocks[q];
                        let up = &mut self.blocks[p];
                        for ii in 0..3 {
                            for jj in (if p == start { ii } else { 0 })..3 {
                                for kk in 0..3 {
                                    up[3 * ii + jj] -= l[3 * kk + ii] * uq[3 * kk + jj];
                                }
                            }
                        }
                    }
                }
            }
            for k in 0..3 {
                let i = 3 * bi + k;
                let d = &mut self.blocks[start];
                let row_scale = self.off_max[i].max((self.diag[i] + alpha).abs()).max(1e-300);
                let floor = 1e-8 * row_scale;
                if d[4 * k].abs() < floor {
                    d[4 * k] = if d[4 * k] >= 0.0 { floor } else { -floor };
                }
                min_pivot = min_pivot.min(d[4 * k]);
                let d = self.blocks[start];
                for ii in k + 1..3 {
                    let l = d[3 * k + ii] / d[4 * k];
                    for p in start..end {
                        let up = &mut self.blocks[p];
                        for jj in (if p == start { ii } else { 0 })..3 {
                            up[3 * ii + jj] -= l * up[3 * k + jj];
                        }
                    }
                }
            }
            for p in start..end {
                pos[self.indices[p] as usize] = ABSENT;
            }
        }
        // Every upper block must have met its mirror in a later block row.
        if let Some(bk) = (0..nb).find(|&bk| cursor[bk] != self.indptr[bk + 1]) {
            let (row, col) = a.first_entry(lo + bk, lo + self.indices[cursor[bk]] as usize);
            return Err(SparseError::AsymmetricPattern { row, col });
        }
        Ok(min_pivot)
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
/// in the paper, cut between nodes — are each factored with IC(0) (on a
/// symmetric block, the operator of PETSc's default ILU(0)
/// sub-preconditioner) and applied in parallel. Off-block coupling is
/// ignored, which is what makes it embarrassingly parallel and also why
/// its iteration count grows with block count.
#[derive(Debug)]
pub struct BlockJacobiPrecond {
    /// Block row ranges `(lo, hi)`, in scalar rows.
    ranges: Vec<(usize, usize)>,
    factors: Vec<Ic0>,
}

impl BlockJacobiPrecond {
    /// Build from explicit block boundaries in scalar rows, which must cut
    /// `a` into non-empty blocks of whole nodes
    /// ([`partition::check_node_offsets`](crate::partition::check_node_offsets)).
    ///
    /// A block with a structurally or numerically zero row is
    /// [`SparseError::SingularBlock`] — not the historical silent
    /// identity fallback, which masked singular systems behind a
    /// preconditioner that quietly destroyed convergence. A block whose
    /// block pattern is not symmetric is [`SparseError::AsymmetricPattern`],
    /// in the matrix's own row and column numbers. When several blocks
    /// fail, the error is the first failing block's in row order.
    pub fn from_offsets(a: &BsrMatrix, offsets: &[usize]) -> Result<Self, SparseError> {
        check_node_offsets(a.nrows(), offsets)?;
        let ranges: Vec<(usize, usize)> = offsets.windows(2).map(|w| (w[0], w[1])).collect();
        let factors: Vec<Result<Ic0, SparseError>> = ranges
            .par_iter()
            .enumerate()
            .map(|(bi, &(lo, hi))| {
                Ic0::new(a, lo..hi).map_err(|e| match e {
                    SparseError::SingularBlock { rows, .. } => {
                        SparseError::SingularBlock { block: bi, rows }
                    }
                    e => e,
                })
            })
            .collect();
        let factors = factors.into_iter().collect::<Result<_, _>>()?;
        Ok(BlockJacobiPrecond { ranges, factors })
    }

    /// Evenly split the nodes into `nblocks` contiguous blocks (the
    /// paper's "approximately equal numbers of mesh nodes to each CPU").
    /// The block count is clamped to one block per node at most.
    pub fn new(a: &BsrMatrix, nblocks: usize) -> Result<Self, SparseError> {
        Self::from_offsets(a, &crate::partition::even_node_offsets(a.nrows(), nblocks))
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

    fn blocks(a: &CsrMatrix) -> BsrMatrix {
        BsrMatrix::from_csr(a).expect("whole nodes")
    }

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

    /// A random SPD matrix of `nodes` node blocks: a symmetric block
    /// pattern over a fifth of the node pairs, each block holding a
    /// random two thirds of its entries (so the filled pattern holds
    /// zeros the scalar one lacks), strongly diagonally dominant (so
    /// IC(0) needs no shift), with diagonal magnitudes spread over three
    /// decades (so the scaling matters).
    fn random_spd(nodes: usize, seed: u64) -> CsrMatrix {
        let n = 3 * nodes;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = TripletBuilder::new(n, n);
        let weight: Vec<f64> = (0..n).map(|_| 10f64.powf(rng.gen_range(0.0..3.0))).collect();
        let mut diag = vec![0.0f64; n];
        for bi in 0..nodes {
            for bj in bi..nodes {
                if bj > bi && !rng.gen_bool(0.2) {
                    continue;
                }
                for i in 3 * bi..3 * bi + 3 {
                    for j in (3 * bj..3 * bj + 3).filter(|&j| j > i) {
                        if rng.gen_bool(2.0 / 3.0) {
                            let v = rng.gen_range(-1.0..1.0) * (weight[i] * weight[j]).sqrt();
                            b.add(i, j, v);
                            b.add(j, i, v);
                            diag[i] += 2.0 * v.abs();
                            diag[j] += 2.0 * v.abs();
                        }
                    }
                }
            }
        }
        for (i, d) in diag.iter().enumerate() {
            b.add(i, i, d + weight[i]);
        }
        b.build()
    }

    /// The unshifted factor's pivots, from the factorization itself.
    fn unshifted_pivots(a: &BsrMatrix) -> Vec<f64> {
        let nb = a.block_rows();
        let mut upper = ScaledUpper::new(a, 0, nb, &scaling(a, 0, nb)).expect("no zero row");
        upper.factor(a, 0, 0.0).expect("symmetric pattern");
        (0..3 * nb).map(|i| upper.blocks[upper.indptr[i / 3]][4 * (i % 3)]).collect()
    }

    /// The factor's scalar rows as `(column, value)`: row `i` its pivot,
    /// then every entry right of it in its diagonal block, then the three
    /// columns of each off-diagonal block, ascending.
    fn scalar_rows(u: &BsrMatrix) -> Vec<Vec<(usize, f64)>> {
        (0..u.nrows())
            .map(|i| {
                let (bi, k) = (i / 3, i % 3);
                let (cols, blocks, _) = u.block_row(bi);
                let diag = (k..3).map(|l| (3 * bi + l, blocks[0][3 * k + l]));
                let off = cols[1..]
                    .iter()
                    .zip(&blocks[1..])
                    .flat_map(|(&j, b)| (0..3).map(move |l| (3 * j as usize + l, b[3 * k + l])));
                diag.chain(off).collect()
            })
            .collect()
    }

    /// The scalar IC(0) sweeps on those rows: `z = S (Uᵀ D⁻¹ U)⁻¹ S r`,
    /// the forward sweep scattering row `i` once `z[i]` is final, the
    /// backward sweep gathering it.
    fn scalar_sweeps(rows: &[Vec<(usize, f64)>], scale: &[f64], r: &[f64]) -> Vec<f64> {
        let mut z: Vec<f64> = r.iter().zip(scale).map(|(ri, si)| ri * si).collect();
        for (i, row) in rows.iter().enumerate() {
            let w = z[i] / row[0].1;
            for &(j, v) in &row[1..] {
                z[j] -= v * w;
            }
        }
        for (i, row) in rows.iter().enumerate().rev() {
            let mut acc = z[i];
            for &(j, v) in &row[1..] {
                acc -= v * z[j];
            }
            z[i] = acc / row[0].1;
        }
        z.iter().zip(scale).map(|(zi, si)| zi * si).collect()
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
    fn ic0_reproduces_the_scaled_matrix_on_its_filled_block_pattern() {
        // IC(0)'s defining property: (Uᵀ D⁻¹ U)_ij = (S A S)_ij for every
        // (i, j) of every stored block of A, the filled zeros included
        // (fill outside the blocks is dropped).
        let a = blocks(&random_spd(20, 27));
        let n = a.nrows();
        let num_blocks: usize = (0..a.block_rows()).map(|bi| a.block_row(bi).0.len()).sum();
        assert!(a.nnz() < 9 * num_blocks, "the fixture must fill some zeros");
        assert!(unshifted_pivots(&a).iter().all(|&d| d >= 1e-2), "the fixture must not shift");
        let ic = Ic0::new(&a, 0..n).unwrap();
        let mut product = vec![0.0; n * n];
        for (k, row) in scalar_rows(&ic.u).iter().enumerate() {
            assert_eq!(row[0].0, k, "row {k} starts at its pivot");
            for &(i, uki) in row {
                for &(j, ukj) in row {
                    product[i * n + j] += uki * ukj / row[0].1;
                }
            }
        }
        let dense = {
            let mut d = vec![0.0; n * n];
            let csr = a.to_csr();
            for i in 0..n {
                let (cols, vals) = csr.row(i);
                for (&j, &v) in cols.iter().zip(vals) {
                    d[i * n + j] = v;
                }
            }
            d
        };
        let mut checked = 0;
        for bi in 0..a.block_rows() {
            for &bj in a.block_row(bi).0 {
                for i in 3 * bi..3 * bi + 3 {
                    for j in 3 * bj as usize..3 * bj as usize + 3 {
                        let scaled = dense[i * n + j] * ic.scale[i] * ic.scale[j];
                        let got = product[i * n + j];
                        assert!(
                            (got - scaled).abs() <= 1e-12 * scaled.abs().max(1.0),
                            "({i}, {j}): {got} vs {scaled}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, 9 * num_blocks);
    }

    #[test]
    fn block_sweeps_are_the_scalar_sweeps_of_the_factor() {
        // Bit for bit, on vectors holding zeros of both signs.
        let a = blocks(&random_spd(30, 5));
        let n = a.nrows();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let vectors: Vec<Vec<f64>> = (0..4)
            .map(|v| {
                (0..n)
                    .map(|i| match (v, i % 7) {
                        (0, _) => rng.gen_range(-1.0..1.0),
                        (_, 3) => -0.0,
                        (_, 5) => 0.0,
                        _ => rng.gen_range(-1.0..1.0) * 10f64.powi((i % 5) as i32 - 2),
                    })
                    .collect()
            })
            .collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let ic = Ic0::new(&a, 0..n).unwrap();
        let rows = scalar_rows(&ic.u);
        for r in &vectors {
            let mut z = vec![f64::NAN; n];
            ic.solve(r, &mut z);
            assert_eq!(bits(&z), bits(&scalar_sweeps(&rows, &ic.scale, r)));
        }
        let p = BlockJacobiPrecond::from_offsets(&a, &[0, 27, 30, 63, n]).unwrap();
        for r in &vectors {
            let mut z = vec![f64::NAN; n];
            p.apply(r, &mut z);
            for (&(lo, hi), ic) in p.ranges.iter().zip(&p.factors) {
                assert_eq!(
                    bits(&z[lo..hi]),
                    bits(&scalar_sweeps(&scalar_rows(&ic.u), &ic.scale, &r[lo..hi]))
                );
            }
        }
    }

    #[test]
    fn ic0_exact_for_tridiagonal() {
        // A tridiagonal matrix is block tridiagonal, which fills nothing
        // outside its blocks: IC(0) is its Cholesky factorization and the
        // solve is exact.
        let a = tridiag(9);
        let ic = Ic0::new(&blocks(&a), 0..9).unwrap();
        let x_true: Vec<f64> = (0..9).map(|i| (i as f64) - 3.5).collect();
        let mut b = vec![0.0; 9];
        a.spmv(&x_true, &mut b);
        let mut x = vec![0.0; 9];
        ic.solve(&b, &mut x);
        for (a, b) in x.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn ic0_apply_is_symmetric() {
        // yᵀ M⁻¹ x = xᵀ M⁻¹ y: what makes it a valid CG preconditioner.
        let n = 81;
        let ic = Ic0::new(&blocks(&random_spd(n / 3, 3)), 0..n).unwrap();
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
        let mut b = TripletBuilder::new(3, 3);
        b.add(0, 0, 1.0 + 1e-6);
        b.add(0, 1, -1.0);
        b.add(1, 0, -1.0);
        b.add(1, 1, 1.0);
        b.add(2, 2, 1.0);
        let a = blocks(&b.build());
        assert!(unshifted_pivots(&a)[1] < 1e-2);
        let ic = Ic0::new(&a, 0..3).unwrap();
        let pivots: Vec<f64> = (0..3).map(|k| ic.u.block_row(0).1[0][4 * k]).collect();
        assert!(pivots.iter().all(|&d| d >= 1e-2), "shifted pivots {pivots:?}");
        let mut z = vec![0.0; 3];
        ic.solve(&[1.0, -1.0, 0.5], &mut z);
        assert!(z.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn asymmetric_pattern_is_a_typed_error() {
        // The pattern is checked block by block, at the block's first
        // stored entry: (1, 4) without (4, 1) leaves block (0, 1) without
        // its mirror, caught when block row 0 is left with an unconsumed
        // block; (5, 2) without (2, 5) is caught at block row 1.
        let diagonal = |n: usize, extra: &[(usize, usize)]| {
            let mut b = TripletBuilder::new(n, n);
            for i in 0..n {
                b.add(i, i, 4.0);
            }
            for &(i, j) in extra {
                b.add(i, j, -1.0);
            }
            blocks(&b.build())
        };
        let asymmetric = |row, col| Err(SparseError::AsymmetricPattern { row, col });
        assert_eq!(Ic0::new(&diagonal(6, &[(1, 4)]), 0..6).map(|_| ()), asymmetric(1, 4));
        assert_eq!(Ic0::new(&diagonal(6, &[(5, 2)]), 0..6).map(|_| ()), asymmetric(5, 2));
        // Block row 2 finds block (0, 1) where it looks for its mirror
        // (0, 2): the unmatched block is (0, 1).
        assert_eq!(Ic0::new(&diagonal(9, &[(1, 4), (1, 7), (7, 1)]), 0..9).map(|_| ()), asymmetric(1, 4));
        // Inside one node block the filled pattern is symmetric.
        assert!(Ic0::new(&diagonal(6, &[(1, 2)]), 0..6).is_ok());
        // Inside a block-Jacobi block the position is the matrix's own.
        let e =
            BlockJacobiPrecond::from_offsets(&diagonal(12, &[(10, 4)]), &[0, 3, 12]).map(|_| ());
        assert_eq!(e, asymmetric(10, 4));
        let wide = BsrMatrix::from_csr(
            &CsrMatrix::from_raw(3, 6, vec![0, 1, 2, 3], vec![0, 1, 2], vec![1.0; 3]).unwrap(),
        );
        let e = Ic0::new(&wide.unwrap(), 0..3);
        assert!(matches!(e, Err(SparseError::DimensionMismatch { .. })), "{e:?}");
    }

    #[test]
    fn block_jacobi_solves_in_place_what_its_blocks_solve_alone() {
        let a = tridiag(24);
        let r: Vec<f64> = (0..24).map(|i| (i as f64 * 0.7).sin()).collect();
        let p = BlockJacobiPrecond::from_offsets(&blocks(&a), &[0, 6, 9, 18, 24]).unwrap();
        // Stale output must be overwritten everywhere.
        let mut z = vec![f64::NAN; 24];
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
        let a = tridiag(12);
        let p = BlockJacobiPrecond::new(&blocks(&a), 1).unwrap();
        let x_true: Vec<f64> = (0..12).map(|i| i as f64 * 0.1).collect();
        let mut b = vec![0.0; 12];
        a.spmv(&x_true, &mut b);
        let mut x = vec![0.0; 12];
        p.apply(&b, &mut x);
        for (a, b) in x.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn block_jacobi_many_blocks_is_approximate_but_spd_like() {
        let p = BlockJacobiPrecond::new(&blocks(&tridiag(18)), 4).unwrap();
        assert_eq!(p.ranges, vec![(0, 6), (6, 12), (12, 15), (15, 18)]);
        let r = vec![1.0; 18];
        let mut z = vec![0.0; 18];
        p.apply(&r, &mut z);
        // Not exact (coupling ignored) but positive and bounded.
        assert!(z.iter().all(|&v| v > 0.0 && v < 100.0));
    }

    #[test]
    fn block_offsets_respected() {
        let p = BlockJacobiPrecond::from_offsets(&blocks(&tridiag(12)), &[0, 3, 12]).unwrap();
        assert_eq!(p.ranges, vec![(0, 3), (3, 12)]);
    }

    #[test]
    fn bad_offsets_are_rejected() {
        let a = blocks(&tridiag(6));
        for offsets in [&[0, 9][..], &[3, 6], &[0, 3, 3, 6], &[0], &[], &[0, 4, 6], &[0, 2, 6], &[0, 6, 3, 6]] {
            let e = BlockJacobiPrecond::from_offsets(&a, offsets);
            assert!(matches!(e, Err(SparseError::InvalidOffsets { .. })), "{offsets:?}: {e:?}");
        }
        for rows in [3..3, 0..9, 1..6, 0..4] {
            let e = Ic0::new(&a, rows.clone()).map(|_| ());
            assert!(matches!(e, Err(SparseError::InvalidOffsets { .. })), "{rows:?}: {e:?}");
        }
    }

    #[test]
    fn singular_block_surfaces_as_error_not_identity() {
        // A diagonal matrix of 2s whose listed rows are entirely zero.
        let zero_rows = |n: usize, zero: &[usize]| {
            let mut b = TripletBuilder::new(n, n);
            for i in 0..n {
                b.add(i, i, if zero.contains(&i) { 0.0 } else { 2.0 });
            }
            blocks(&b.build())
        };
        // Row 4 is zero: block (3..6) is singular. Before the fix this
        // produced a silent identity factor.
        let e = BlockJacobiPrecond::from_offsets(&zero_rows(6, &[4]), &[0, 3, 6]).unwrap_err();
        assert_eq!(e, SparseError::SingularBlock { block: 1, rows: (3, 6) });
        // Rows 1 and 7 are zero: blocks 0 and 2 both fail, and the error
        // names the lower one whatever order the blocks factor in.
        let e =
            BlockJacobiPrecond::from_offsets(&zero_rows(9, &[1, 7]), &[0, 3, 6, 9]).unwrap_err();
        assert_eq!(e, SparseError::SingularBlock { block: 0, rows: (0, 3) });
        assert_eq!(
            Ic0::new(&zero_rows(6, &[5]), 0..6).unwrap_err(),
            SparseError::SingularBlock { block: 0, rows: (0, 6) }
        );
    }
}
