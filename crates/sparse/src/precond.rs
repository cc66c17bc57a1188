//! Preconditioners.
//!
//! The paper solves its FEM system "using the Generalized Minimal Residual
//! (GMRES) solver with block Jacobi preconditioning" (PETSc's default
//! block-Jacobi applies one block per process, ILU(0) inside each block).
//! We provide exactly that, plus point Jacobi and identity for ablations.

use crate::csr::CsrMatrix;
use crate::dense::DenseLu;
use crate::error::SparseError;
use brainshift_persist::{Decoder, Encoder, Persist, PersistError};
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
    /// Serialize the *factored* operator (a tag byte plus the factors)
    /// so a restored context skips re-factorization. Returns `Ok(false)`
    /// without writing for operators that don't support persistence;
    /// decode back through [`decode_preconditioner`].
    fn persist_into(&self, _enc: &mut Encoder) -> Result<bool, PersistError> {
        Ok(false)
    }
}

/// Persistence tags, one per supported `Preconditioner` implementation.
const TAG_IDENTITY: u8 = 0;
const TAG_JACOBI: u8 = 1;
const TAG_ILU0: u8 = 2;
const TAG_BLOCK_JACOBI: u8 = 3;

/// Decode a preconditioner written by
/// [`Preconditioner::persist_into`], validating that the operator acts
/// on vectors of length `expect_dim`.
pub fn decode_preconditioner(
    dec: &mut Decoder<'_>,
    expect_dim: usize,
) -> Result<Box<dyn Preconditioner>, PersistError> {
    let dim_mismatch = |name: &str, got: usize| PersistError::InvalidData {
        reason: format!("{name} preconditioner has dimension {got}, operator needs {expect_dim}"),
    };
    match dec.get_u8()? {
        TAG_IDENTITY => Ok(Box::new(IdentityPrecond)),
        TAG_JACOBI => {
            let p = JacobiPrecond::decode(dec)?;
            if p.inv_diag.len() != expect_dim {
                return Err(dim_mismatch("jacobi", p.inv_diag.len()));
            }
            Ok(Box::new(p))
        }
        TAG_ILU0 => {
            let p = Ilu0::decode(dec)?;
            if p.lu.nrows() != expect_dim {
                return Err(dim_mismatch("ilu0", p.lu.nrows()));
            }
            Ok(Box::new(p))
        }
        TAG_BLOCK_JACOBI => {
            let p = BlockJacobiPrecond::decode(dec)?;
            let covered = p.ranges.last().map_or(0, |&(_, hi)| hi);
            if covered != expect_dim {
                return Err(dim_mismatch("block-jacobi", covered));
            }
            Ok(Box::new(p))
        }
        tag => Err(PersistError::InvalidData { reason: format!("unknown preconditioner tag {tag}") }),
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
    fn persist_into(&self, enc: &mut Encoder) -> Result<bool, PersistError> {
        enc.put_u8(TAG_IDENTITY);
        Ok(true)
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
    fn persist_into(&self, enc: &mut Encoder) -> Result<bool, PersistError> {
        enc.put_u8(TAG_JACOBI);
        Persist::encode(self, enc)?;
        Ok(true)
    }
}

impl Persist for JacobiPrecond {
    fn encode(&self, enc: &mut Encoder) -> Result<(), PersistError> {
        self.inv_diag.encode(enc)
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        Ok(JacobiPrecond { inv_diag: Vec::<f64>::decode(dec)? })
    }
}

/// ILU(0): incomplete LU with zero fill-in, on the sparsity pattern of `A`.
/// Standard IKJ formulation, applied to the symmetrically diagonally
/// scaled matrix `S A S` (`S = diag(1/√|a_ii|)`) — without the scaling,
/// ILU(0) is numerically unstable on high-material-contrast elasticity
/// matrices and the resulting preconditioner stalls the Krylov solver.
#[derive(Debug, Clone)]
pub struct Ilu0 {
    /// Factored matrix: strictly-lower part stores L (unit diagonal
    /// implied), diagonal+upper stores U.
    lu: CsrMatrix,
    /// Position of the diagonal entry in each row of `lu`.
    diag_pos: Vec<usize>,
    /// Symmetric scaling `S` applied before factorization.
    scale: Vec<f64>,
}

impl Ilu0 {
    /// Factorize with an adaptive diagonal shift: ILU(0) of an SPD matrix
    /// can still produce tiny or negative pivots when material contrast is
    /// high; following PETSc's positive-definite shift strategy, the
    /// scaled matrix is refactored with a growing `αI` until all pivots
    /// are healthy.
    pub fn new(a: &CsrMatrix) -> Self {
        let mut alpha = 0.0;
        loop {
            let (ilu, min_pivot) = Self::factor_with_shift(a, alpha);
            // Scaled diagonal is ~1, so pivots ≥ 0.01 mean a stable factor.
            if min_pivot >= 1e-2 || alpha > 1.0 {
                return ilu;
            }
            alpha = if alpha == 0.0 { 0.02 } else { alpha * 4.0 };
        }
    }

    /// One factorization attempt of `S A S + αI`; returns the factor and
    /// the smallest pivot magnitude encountered.
    fn factor_with_shift(a: &CsrMatrix, alpha: f64) -> (Self, f64) {
        debug_assert_eq!(a.nrows(), a.ncols(), "ILU(0) needs a square matrix");
        let n = a.nrows();
        let mut lu = a.clone();
        // Symmetric diagonal scaling: B = S A S with S = 1/sqrt(|a_ii|).
        let scale: Vec<f64> = a
            .diagonal()
            .into_iter()
            .map(|d| if d.abs() > 1e-300 { 1.0 / d.abs().sqrt() } else { 1.0 })
            .collect();
        for i in 0..n {
            let start = lu.indptr()[i];
            let end = lu.indptr()[i + 1];
            for k in start..end {
                let j = lu.indices()[k];
                lu.values_mut()[k] *= scale[i] * scale[j];
                if i == j {
                    lu.values_mut()[k] += alpha;
                }
            }
        }
        let mut diag_pos = vec![usize::MAX; n];
        // Per-row magnitude of the ORIGINAL matrix: pivot guards must be
        // relative to the problem's scale, or a badly scaled system (e.g.
        // high material contrast) produces near-singular factors whose
        // inverse destroys the preconditioned residual norm.
        let mut row_scale = vec![0.0f64; n];
        for i in 0..n {
            let (cols, _) = lu.row(i);
            if let Ok(k) = cols.binary_search(&i) {
                diag_pos[i] = lu.indptr()[i] + k;
            }
            let (_, vals) = lu.row(i);
            row_scale[i] = vals.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-300);
        }
        let mut min_pivot = f64::INFINITY;
        // Column-position lookup per row happens via binary search on the
        // row's sorted indices.
        for i in 0..n {
            let row_start = lu.indptr()[i];
            let row_end = lu.indptr()[i + 1];
            // For each k < i present in row i:
            for kk in row_start..row_end {
                let k = lu.indices()[kk];
                if k >= i {
                    break;
                }
                let dk = diag_pos[k];
                if dk == usize::MAX {
                    continue;
                }
                let pivot = lu.values()[dk];
                let floor = 1e-8 * row_scale[k];
                let pivot = if pivot.abs() < floor {
                    if pivot >= 0.0 { floor } else { -floor }
                } else {
                    pivot
                };
                let lik = lu.values()[kk] / pivot;
                lu.values_mut()[kk] = lik;
                // row_i -= lik * row_k (upper part of row k only), on the
                // existing pattern of row i.
                let krow_start = lu.indptr()[k];
                let krow_end = lu.indptr()[k + 1];
                for kj in krow_start..krow_end {
                    let j = lu.indices()[kj];
                    if j <= k {
                        continue;
                    }
                    let ukj = lu.values()[kj];
                    // Find j in row i.
                    let icols = &lu.indices()[row_start..row_end];
                    if let Ok(pos) = icols.binary_search(&j) {
                        lu.values_mut()[row_start + pos] -= lik * ukj;
                    }
                }
            }
            // Guard the pivot relative to the row's original scale.
            if diag_pos[i] != usize::MAX {
                let d = lu.values()[diag_pos[i]];
                let floor = 1e-8 * row_scale[i];
                if d.abs() < floor {
                    lu.values_mut()[diag_pos[i]] = if d >= 0.0 { floor } else { -floor };
                }
                min_pivot = min_pivot.min(lu.values()[diag_pos[i]]);
            }
        }
        (Ilu0 { lu, diag_pos, scale }, min_pivot)
    }

    /// Solve `M z = r` with `M = S⁻¹ (L U) S⁻¹` (the ILU factorization of
    /// the scaled matrix, unscaled back): `z = S · LU⁻¹ · (S r)`.
    ///
    /// Each factor entry is read once: [`split_row`](Self::split_row)
    /// divides row `i` into its L part and its U part.
    pub fn solve(&self, r: &[f64], z: &mut [f64]) {
        let n = self.lu.nrows();
        debug_assert!(r.len() == n && z.len() == n);
        let (indptr, cols, vals) = (self.lu.indptr(), self.lu.indices(), self.lu.values());
        // Forward: L y = S r (unit diagonal).
        for i in 0..n {
            let mut acc = r[i] * self.scale[i];
            let (lower_end, _, _) = self.split_row(i);
            for k in indptr[i]..lower_end {
                acc -= vals[k] * z[cols[k]];
            }
            z[i] = acc;
        }
        // Backward: U w = y, then z = S w.
        for i in (0..n).rev() {
            let mut acc = z[i];
            let (_, upper_start, pivot) = self.split_row(i);
            for k in upper_start..indptr[i + 1] {
                acc -= vals[k] * z[cols[k]];
            }
            z[i] = acc / pivot;
        }
        for i in 0..n {
            z[i] *= self.scale[i];
        }
    }

    /// Where row `i` of `lu` splits: the end of its strictly-lower
    /// entries, the start of its strictly-upper ones, and its pivot. With
    /// a stored diagonal that is `diag_pos` and its two neighbours; a row
    /// without one splits at its first column ≥ `i` and pivots on 1.
    #[inline]
    fn split_row(&self, i: usize) -> (usize, usize, f64) {
        let d = self.diag_pos[i];
        if d != usize::MAX {
            return (d, d + 1, self.lu.values()[d]);
        }
        let (start, end) = (self.lu.indptr()[i], self.lu.indptr()[i + 1]);
        let first_upper = start + self.lu.indices()[start..end].partition_point(|&c| c < i);
        (first_upper, first_upper, 1.0)
    }
}

impl Preconditioner for Ilu0 {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.solve(r, z);
    }
    fn name(&self) -> &'static str {
        "ilu0"
    }
    fn memory_bytes(&self) -> usize {
        self.lu.memory_bytes()
            + std::mem::size_of_val(self.diag_pos.as_slice())
            + std::mem::size_of_val(self.scale.as_slice())
    }
    fn persist_into(&self, enc: &mut Encoder) -> Result<bool, PersistError> {
        enc.put_u8(TAG_ILU0);
        Persist::encode(self, enc)?;
        Ok(true)
    }
}

impl Persist for Ilu0 {
    fn encode(&self, enc: &mut Encoder) -> Result<(), PersistError> {
        self.lu.encode(enc)?;
        // `diag_pos` holds `usize::MAX` sentinels for rows without a
        // stored diagonal; shift by one so the sentinel encodes as 0
        // instead of a value that only round-trips on 64-bit hosts.
        let diag_pos: Vec<u64> = self
            .diag_pos
            .iter()
            .map(|&p| if p == usize::MAX { 0 } else { p as u64 + 1 })
            .collect();
        diag_pos.encode(enc)?;
        self.scale.encode(enc)
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let lu = CsrMatrix::decode(dec)?;
        let n = lu.nrows();
        if lu.ncols() != n {
            return Err(PersistError::InvalidData {
                reason: format!("ilu0 factor is {}×{}, must be square", n, lu.ncols()),
            });
        }
        let raw = Vec::<u64>::decode(dec)?;
        let scale = Vec::<f64>::decode(dec)?;
        if raw.len() != n || scale.len() != n {
            return Err(PersistError::InvalidData {
                reason: format!(
                    "ilu0 arrays disagree: {} diag positions, {} scales, dim {n}",
                    raw.len(),
                    scale.len()
                ),
            });
        }
        let mut diag_pos = Vec::with_capacity(n);
        for (i, &p) in raw.iter().enumerate() {
            if p == 0 {
                diag_pos.push(usize::MAX);
                continue;
            }
            let p = (p - 1) as usize;
            if p < lu.indptr()[i] || p >= lu.indptr()[i + 1] || lu.indices()[p] != i {
                return Err(PersistError::InvalidData {
                    reason: format!("ilu0 diag position {p} not on row {i}'s diagonal"),
                });
            }
            diag_pos.push(p);
        }
        Ok(Ilu0 { lu, diag_pos, scale })
    }
}

/// How each diagonal block of the block-Jacobi preconditioner is solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockSolve {
    /// Exact dense LU (only sensible for small blocks).
    DenseLu,
    /// ILU(0) on the block (PETSc's default sub-preconditioner).
    Ilu0,
}

impl Persist for BlockSolve {
    fn encode(&self, enc: &mut Encoder) -> Result<(), PersistError> {
        enc.put_u8(match self {
            BlockSolve::DenseLu => 0,
            BlockSolve::Ilu0 => 1,
        });
        Ok(())
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        match dec.get_u8()? {
            0 => Ok(BlockSolve::DenseLu),
            1 => Ok(BlockSolve::Ilu0),
            t => Err(PersistError::InvalidData { reason: format!("invalid BlockSolve tag {t}") }),
        }
    }
}

enum BlockFactor {
    Dense(DenseLu),
    Ilu(Ilu0),
}

impl BlockFactor {
    fn dim(&self) -> usize {
        match self {
            BlockFactor::Dense(lu) => lu.dim(),
            BlockFactor::Ilu(ilu) => ilu.lu.nrows(),
        }
    }
}

impl Persist for BlockFactor {
    fn encode(&self, enc: &mut Encoder) -> Result<(), PersistError> {
        match self {
            BlockFactor::Dense(lu) => {
                enc.put_u8(0);
                lu.encode(enc)
            }
            BlockFactor::Ilu(ilu) => {
                enc.put_u8(1);
                ilu.encode(enc)
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        match dec.get_u8()? {
            0 => Ok(BlockFactor::Dense(DenseLu::decode(dec)?)),
            1 => Ok(BlockFactor::Ilu(Ilu0::decode(dec)?)),
            t => Err(PersistError::InvalidData { reason: format!("invalid BlockFactor tag {t}") }),
        }
    }
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
    /// that quietly destroyed convergence.
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
                // singular regardless of the factorization used (ILU(0)'s
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
                    BlockSolve::Ilu0 => Ok((BlockFactor::Ilu(Ilu0::new(&block)), false)),
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

    /// Number of diagonal blocks.
    pub fn num_blocks(&self) -> usize {
        self.ranges.len()
    }

    /// Row range `(lo, hi)` of each block.
    pub fn block_ranges(&self) -> &[(usize, usize)] {
        &self.ranges
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
            BlockFactor::Ilu(ilu) => ilu.solve(r, z),
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
                BlockFactor::Ilu(ilu) => ilu.memory_bytes(),
            })
            .sum();
        factors + std::mem::size_of_val(self.ranges.as_slice())
    }
    fn persist_into(&self, enc: &mut Encoder) -> Result<bool, PersistError> {
        enc.put_u8(TAG_BLOCK_JACOBI);
        Persist::encode(self, enc)?;
        Ok(true)
    }
}

impl Persist for BlockJacobiPrecond {
    fn encode(&self, enc: &mut Encoder) -> Result<(), PersistError> {
        self.ranges.encode(enc)?;
        self.factors.encode(enc)?;
        enc.put_usize(self.shifted_blocks);
        Ok(())
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let ranges = Vec::<(usize, usize)>::decode(dec)?;
        let factors = Vec::<BlockFactor>::decode(dec)?;
        let shifted_blocks = dec.get_usize()?;
        if ranges.is_empty() || ranges.len() != factors.len() || shifted_blocks > ranges.len() {
            return Err(PersistError::InvalidData {
                reason: format!(
                    "block-jacobi: {} ranges, {} factors, {shifted_blocks} shifted",
                    ranges.len(),
                    factors.len()
                ),
            });
        }
        let mut expect_lo = 0usize;
        for (&(lo, hi), factor) in ranges.iter().zip(&factors) {
            if lo != expect_lo || hi <= lo {
                return Err(PersistError::InvalidData {
                    reason: format!("block-jacobi: non-contiguous block ({lo}, {hi})"),
                });
            }
            if factor.dim() != hi - lo {
                return Err(PersistError::InvalidData {
                    reason: format!(
                        "block-jacobi: block ({lo}, {hi}) has a factor of dimension {}",
                        factor.dim()
                    ),
                });
            }
            expect_lo = hi;
        }
        Ok(BlockJacobiPrecond { ranges, factors, shifted_blocks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::TripletBuilder;

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
    fn ilu0_exact_for_tridiagonal() {
        // For a tridiagonal matrix ILU(0) equals full LU, so the solve is
        // exact.
        let a = tridiag(8);
        let ilu = Ilu0::new(&a);
        let x_true: Vec<f64> = (0..8).map(|i| (i as f64) - 3.5).collect();
        let mut b = vec![0.0; 8];
        a.spmv(&x_true, &mut b);
        let mut x = vec![0.0; 8];
        ilu.solve(&b, &mut x);
        for (a, b) in x.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    /// The sweep `Ilu0::solve` replaced, kept as the reference: it walks
    /// every row whole, twice, and tests each column against `i`.
    fn solve_testing_every_column(ilu: &Ilu0, r: &[f64], z: &mut [f64]) {
        let n = ilu.lu.nrows();
        for i in 0..n {
            let mut acc = r[i] * ilu.scale[i];
            let (cols, vals) = ilu.lu.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                if c >= i {
                    break;
                }
                acc -= v * z[c];
            }
            z[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = z[i];
            let (cols, vals) = ilu.lu.row(i);
            let mut diag = 1.0;
            for (&c, &v) in cols.iter().zip(vals) {
                if c > i {
                    acc -= v * z[c];
                } else if c == i {
                    diag = v;
                }
            }
            z[i] = acc / diag;
        }
        for i in 0..n {
            z[i] *= ilu.scale[i];
        }
    }

    #[test]
    fn ilu0_solve_equals_the_column_testing_sweep_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let n = 60;
        // Rows 0 (no lower part), 17 (lower and upper entries around the
        // gap) and n−1 (no upper part) have no stored diagonal.
        let no_diag = [0, 17, n - 1];
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            if !no_diag.contains(&i) {
                b.add(i, i, 4.0 + rng.gen_range(0.0..1.0));
            }
            for j in 0..n {
                if j != i && rng.gen_bool(0.12) {
                    b.add(i, j, rng.gen_range(-1.0..1.0));
                }
            }
        }
        let ilu = Ilu0::new(&b.build());
        for &i in &no_diag {
            assert_eq!(ilu.diag_pos[i], usize::MAX);
        }
        assert!(ilu.lu.row(17).0.iter().any(|&c| c < 17) && ilu.lu.row(17).0.iter().any(|&c| c > 17));
        let r: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let (mut z, mut z_ref) = (vec![0.0; n], vec![0.0; n]);
        ilu.solve(&r, &mut z);
        solve_testing_every_column(&ilu, &r, &mut z_ref);
        assert!(z.iter().all(|v| v.is_finite()));
        for (i, (a, b)) in z.iter().zip(&z_ref).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
        }
    }

    #[test]
    fn block_jacobi_solves_in_place_what_its_blocks_solve_alone() {
        let a = tridiag(23);
        let r: Vec<f64> = (0..23).map(|i| (i as f64 * 0.7).sin()).collect();
        for solve in [BlockSolve::DenseLu, BlockSolve::Ilu0] {
            let p = BlockJacobiPrecond::from_offsets(&a, &[0, 5, 6, 16, 23], solve).unwrap();
            // Stale output must be overwritten everywhere.
            let mut z = vec![f64::NAN; 23];
            p.apply(&r, &mut z);
            for (&(lo, hi), factor) in p.ranges.iter().zip(&p.factors) {
                let mut alone = vec![0.0; hi - lo];
                match factor {
                    BlockFactor::Dense(lu) => lu.solve(&r[lo..hi], &mut alone),
                    BlockFactor::Ilu(ilu) => ilu.solve(&r[lo..hi], &mut alone),
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
        assert_eq!(p.num_blocks(), 4);
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
        let p = BlockJacobiPrecond::from_offsets(&a, &[0, 3, 10], BlockSolve::Ilu0).unwrap();
        assert_eq!(p.block_ranges(), &[(0, 3), (3, 10)]);
    }

    #[test]
    fn bad_offsets_are_rejected() {
        let a = tridiag(4);
        let e = BlockJacobiPrecond::from_offsets(&a, &[0, 5], BlockSolve::Ilu0);
        assert!(matches!(e, Err(SparseError::InvalidOffsets { .. })), "{e:?}");
        let e = BlockJacobiPrecond::from_offsets(&a, &[1, 4], BlockSolve::Ilu0);
        assert!(matches!(e, Err(SparseError::InvalidOffsets { .. })));
        let e = BlockJacobiPrecond::from_offsets(&a, &[0, 2, 2, 4], BlockSolve::Ilu0);
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
        for solve in [BlockSolve::DenseLu, BlockSolve::Ilu0] {
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
