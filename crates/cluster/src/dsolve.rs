//! A genuinely distributed GMRES over the thread communicator.
//!
//! The timing figures use the deterministic cost model in [`crate::sim`],
//! but the distributed *algorithm* itself — SPMD GMRES with row-partitioned
//! matrix and vectors, allreduce dot products, allgather for the matvec,
//! and a per-rank block-Jacobi preconditioner (each rank owns exactly one
//! block, as in the paper's PETSc configuration, factored with IC(0): on
//! the symmetric stiffness matrix, the operator PETSc's ILU(0) computes) —
//! runs here
//! on real rank threads exchanging real messages, and is verified against
//! the serial solver. This is the executable counterpart of what the paper
//! ran with MPI.

use crate::comm::Comm;
use brainshift_sparse::{CsrMatrix, Ic0, SolveStats, SolverOptions, SparseError, StopReason};

/// One rank's share of a row-partitioned system.
pub struct LocalSystem {
    /// This rank's rows (full column space: `ncols` = global n).
    pub rows: CsrMatrix,
    /// Global row range owned by this rank.
    pub row_begin: usize,
    /// One past the last global row owned by this rank.
    pub row_end: usize,
    /// Global dimension.
    pub global_n: usize,
    /// IC(0) factor of the diagonal block: this rank's block-Jacobi block.
    factor: Ic0,
}

impl LocalSystem {
    /// Slice rows `[lo, hi)` of a global matrix for one rank and factor
    /// its diagonal block. An empty range (`lo == hi`) is allowed — a rank
    /// beyond the clamped effective partition simply owns no rows — but an
    /// out-of-bounds or inverted range is reported instead of asserted, and
    /// so is a diagonal block whose pattern is not symmetric
    /// ([`SparseError::AsymmetricPattern`], in global numbering). Each
    /// rank factors before its first message, so a refusal never leaves
    /// another rank waiting in a collective.
    pub fn from_global(a: &CsrMatrix, lo: usize, hi: usize) -> Result<LocalSystem, SparseError> {
        if lo > hi || hi > a.nrows() {
            return Err(SparseError::InvalidRange { lo, hi, nrows: a.nrows() });
        }
        let mut indptr = Vec::with_capacity(hi - lo + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for i in lo..hi {
            let (cols, vals) = a.row(i);
            indices.extend_from_slice(cols);
            values.extend_from_slice(vals);
            indptr.push(indices.len());
        }
        let rows = CsrMatrix::from_raw(hi - lo, a.ncols(), indptr, indices, values)
            .expect("rows sliced from a valid CSR matrix are valid");
        let factor = match Ic0::new(&diagonal_block(&rows, lo, hi)) {
            Ok(f) => f,
            Err(SparseError::AsymmetricPattern { row, col }) => {
                return Err(SparseError::AsymmetricPattern { row: row + lo, col: col + lo })
            }
            Err(e) => return Err(e),
        };
        Ok(LocalSystem { rows, row_begin: lo, row_end: hi, global_n: a.nrows(), factor })
    }

    /// The diagonal block (rows ∩ columns of this rank), for the local
    /// block-Jacobi preconditioner.
    pub fn diagonal_block(&self) -> CsrMatrix {
        diagonal_block(&self.rows, self.row_begin, self.row_end)
    }
}

/// Columns `[lo, hi)` of the rows `rows` (global rows `[lo, hi)`), renumbered
/// from 0.
fn diagonal_block(rows: &CsrMatrix, lo: usize, hi: usize) -> CsrMatrix {
    let n = hi - lo;
    let mut indptr = Vec::with_capacity(n + 1);
    let mut indices = Vec::new();
    let mut values = Vec::new();
    indptr.push(0);
    for i in 0..n {
        let (cols, vals) = rows.row(i);
        for (&c, &v) in cols.iter().zip(vals) {
            if c >= lo && c < hi {
                indices.push(c - lo);
                values.push(v);
            }
        }
        indptr.push(indices.len());
    }
    CsrMatrix::from_raw(n, n, indptr, indices, values).expect("diagonal block of a valid CSR matrix is valid")
}

/// Distributed state each rank carries through the solve.
struct Dist<'a> {
    comm: &'a mut Comm,
    sys: &'a LocalSystem,
    /// When present, matvecs use the ghost-exchange plan instead of a
    /// full allgather.
    ghost: Option<&'a GhostedSystem>,
}

impl Dist<'_> {
    /// Global dot product of two distributed vectors (local slices).
    fn dot(&mut self, a: &[f64], b: &[f64]) -> f64 {
        let local: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        self.comm.allreduce_sum(&[local])[0]
    }

    fn norm(&mut self, a: &[f64]) -> f64 {
        self.dot_self(a).sqrt()
    }

    fn dot_self(&mut self, a: &[f64]) -> f64 {
        let local: f64 = a.iter().map(|x| x * x).sum();
        self.comm.allreduce_sum(&[local])[0]
    }

    /// Distributed matvec: ghost exchange when a plan exists, otherwise
    /// allgather the global vector and multiply local rows.
    fn matvec(&mut self, x_local: &[f64], y_local: &mut [f64]) {
        if let Some(g) = self.ghost {
            g.matvec(self.comm, x_local, y_local);
            return;
        }
        let parts = self.comm.allgatherv(x_local);
        let full: Vec<f64> = parts.concat();
        debug_assert_eq!(full.len(), self.sys.global_n);
        self.sys.rows.spmv(&full, y_local);
    }
}

/// Run distributed GMRES on this rank. Every rank calls this with its
/// [`LocalSystem`] and local rhs slice; all ranks return the identical
/// [`SolveStats`] and their local solution slice.
///
/// Preconditioning is block Jacobi with one block per rank, factored
/// with IC(0) by [`LocalSystem::from_global`] — no communication in the
/// preconditioner, exactly the property the paper's configuration
/// exploits.
pub fn distributed_gmres(
    comm: &mut Comm,
    sys: &LocalSystem,
    b_local: &[f64],
    opts: &SolverOptions,
) -> (Vec<f64>, SolveStats) {
    distributed_gmres_impl(comm, sys, None, b_local, opts)
}

/// [`distributed_gmres`] with ghost-exchange matvecs (pass a
/// [`GhostedSystem`] built over the same partition).
pub fn distributed_gmres_ghosted(
    comm: &mut Comm,
    ghosted: &GhostedSystem,
    b_local: &[f64],
    opts: &SolverOptions,
) -> (Vec<f64>, SolveStats) {
    distributed_gmres_impl(comm, ghosted.local(), Some(ghosted), b_local, opts)
}

fn distributed_gmres_impl(
    comm: &mut Comm,
    sys: &LocalSystem,
    ghost: Option<&GhostedSystem>,
    b_local: &[f64],
    opts: &SolverOptions,
) -> (Vec<f64>, SolveStats) {
    let nloc = sys.row_end - sys.row_begin;
    assert_eq!(b_local.len(), nloc);
    let factor = &sys.factor;
    let m = opts.restart.max(1);

    let mut dist = Dist { comm, sys, ghost };
    let mut x = vec![0.0; nloc];
    let b_norm = dist.norm(b_local);
    if b_norm == 0.0 {
        return (
            x,
            SolveStats { reason: StopReason::Converged, iterations: 0, relative_residual: 0.0, history: vec![], restarts: 0 },
        );
    }
    let mut total_iters = 0usize;
    let mut work = vec![0.0; nloc];
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
    let mut h = vec![0.0f64; (m + 1) * m];
    let mut cs = vec![0.0f64; m];
    let mut sn = vec![0.0f64; m];
    let mut g = vec![0.0f64; m + 1];
    let mut inner_tol = opts.tolerance;
    let mut last_rel = f64::INFINITY;

    loop {
        // True residual.
        dist.matvec(&x, &mut work);
        let mut raw = vec![0.0; nloc];
        for i in 0..nloc {
            raw[i] = b_local[i] - work[i];
        }
        let raw_rel = dist.norm(&raw) / b_norm;
        if raw_rel <= opts.tolerance {
            return (
                x,
                SolveStats { reason: StopReason::Converged, iterations: total_iters, relative_residual: raw_rel, history: vec![], restarts: 0 },
            );
        }
        if total_iters >= opts.max_iterations {
            return (
                x,
                SolveStats { reason: StopReason::MaxIterations, iterations: total_iters, relative_residual: raw_rel, history: vec![], restarts: 0 },
            );
        }
        if last_rel.is_finite() && last_rel > 0.0 {
            let needed = opts.tolerance * (last_rel / raw_rel) * 0.5;
            inner_tol = inner_tol.min(needed).max(1e-30);
        }
        // Preconditioned residual (local solve, no communication).
        let mut r = vec![0.0; nloc];
        factor.solve(&raw, &mut r);
        let beta = dist.norm(&r);
        if beta < 1e-300 {
            return (
                x,
                SolveStats { reason: StopReason::Breakdown, iterations: total_iters, relative_residual: raw_rel, history: vec![], restarts: 0 },
            );
        }
        // Preconditioned rhs norm for the recurrence scale (computed once
        // per cycle — cheap and adequate).
        let mut zb = vec![0.0; nloc];
        factor.solve(b_local, &mut zb);
        let pb_norm = dist.norm(&zb).max(1e-300);

        basis.clear();
        let mut v0 = r;
        for v in &mut v0 {
            *v /= beta;
        }
        basis.push(v0);
        g.iter_mut().for_each(|v| *v = 0.0);
        g[0] = beta;
        let mut k_used = 0usize;

        for j in 0..m {
            if total_iters >= opts.max_iterations {
                break;
            }
            total_iters += 1;
            dist.matvec(&basis[j], &mut work);
            let mut w = vec![0.0; nloc];
            factor.solve(&work, &mut w);
            for i in 0..=j {
                let hij = dist.dot(&w, &basis[i]);
                h[i + j * (m + 1)] = hij;
                for (wv, bv) in w.iter_mut().zip(&basis[i]) {
                    *wv -= hij * bv;
                }
            }
            let wnorm = dist.norm(&w);
            h[(j + 1) + j * (m + 1)] = wnorm;
            for i in 0..j {
                let hi = h[i + j * (m + 1)];
                let hi1 = h[(i + 1) + j * (m + 1)];
                h[i + j * (m + 1)] = cs[i] * hi + sn[i] * hi1;
                h[(i + 1) + j * (m + 1)] = -sn[i] * hi + cs[i] * hi1;
            }
            let hjj = h[j + j * (m + 1)];
            let hj1j = h[(j + 1) + j * (m + 1)];
            let denom = (hjj * hjj + hj1j * hj1j).sqrt();
            if denom < 1e-300 {
                k_used = j;
                break;
            }
            cs[j] = hjj / denom;
            sn[j] = hj1j / denom;
            h[j + j * (m + 1)] = denom;
            h[(j + 1) + j * (m + 1)] = 0.0;
            let gj = g[j];
            g[j] = cs[j] * gj;
            g[j + 1] = -sn[j] * gj;
            k_used = j + 1;
            last_rel = g[j + 1].abs() / pb_norm;
            if last_rel <= inner_tol || wnorm < 1e-300 {
                break;
            }
            let mut vnext = w;
            for v in &mut vnext {
                *v /= wnorm;
            }
            basis.push(vnext);
        }

        if k_used > 0 {
            let mut y = vec![0.0f64; k_used];
            for i in (0..k_used).rev() {
                let mut acc = g[i];
                for j2 in (i + 1)..k_used {
                    acc -= h[i + j2 * (m + 1)] * y[j2];
                }
                y[i] = acc / h[i + i * (m + 1)];
            }
            for (j2, &yj) in y.iter().enumerate() {
                for (xv, bv) in x.iter_mut().zip(&basis[j2]) {
                    *xv += yj * bv;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run_ranks;
    use brainshift_sparse::partition::even_offsets;
    use brainshift_sparse::TripletBuilder;

    fn laplace_3d_like(n: usize) -> CsrMatrix {
        // A 1-D Laplacian chain plus long-range couplings, SPD.
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            let mut diag = 2.0;
            if i > 0 {
                b.add(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
            }
            if i + 17 < n {
                b.add(i, i + 17, -0.3);
                b.add(i + 17, i, -0.3);
                diag += 0.3;
            }
            if i >= 17 {
                diag += 0.3;
            }
            b.add(i, i, diag + 0.1);
        }
        b.build()
    }

    #[test]
    fn local_system_slices_rows() {
        let a = laplace_3d_like(40);
        let s = LocalSystem::from_global(&a, 10, 25).unwrap();
        assert_eq!(s.rows.nrows(), 15);
        assert_eq!(s.rows.get(0, 10), a.get(10, 10));
        assert_eq!(s.rows.get(0, 9), a.get(10, 9));
        let blk = s.diagonal_block();
        assert_eq!(blk.nrows(), 15);
        assert_eq!(blk.get(0, 0), a.get(10, 10));
        // Off-block entries are excluded.
        assert_eq!(blk.get(0, 14), a.get(10, 24));
    }

    #[test]
    fn asymmetric_diagonal_block_is_a_typed_error() {
        let mut b = TripletBuilder::new(6, 6);
        for i in 0..6 {
            b.add(i, i, 4.0);
        }
        b.add(4, 3, -1.0);
        let a = b.build();
        assert!(LocalSystem::from_global(&a, 0, 3).is_ok());
        assert_eq!(
            LocalSystem::from_global(&a, 3, 6).err(),
            Some(SparseError::AsymmetricPattern { row: 4, col: 3 })
        );
    }

    #[test]
    fn distributed_matches_serial_gmres() {
        let n = 200;
        let a = laplace_3d_like(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin()).collect();
        let mut rhs = vec![0.0; n];
        a.spmv(&x_true, &mut rhs);
        let opts = SolverOptions { tolerance: 1e-9, max_iterations: 2000, ..Default::default() };
        for p in [1usize, 2, 4] {
            let offsets = even_offsets(n, p);
            let results = run_ranks(p, |comm| {
                let r = comm.rank();
                let sys = LocalSystem::from_global(&a, offsets[r], offsets[r + 1]).expect("valid row slice");
                let b_local = &rhs[offsets[r]..offsets[r + 1]];
                distributed_gmres(comm, &sys, b_local, &opts)
            });
            // All ranks agree on the stats.
            let iters0 = results[0].1.iterations;
            for (_, stats) in &results {
                assert!(stats.converged(), "p={p}: {:?}", stats.reason);
                assert_eq!(stats.iterations, iters0);
            }
            // Concatenated solution solves the system.
            let x: Vec<f64> = results.iter().flat_map(|(xl, _)| xl.clone()).collect();
            for (xi, ti) in x.iter().zip(&x_true) {
                assert!((xi - ti).abs() < 1e-6, "p={p}");
            }
        }
    }

    #[test]
    fn iteration_count_grows_with_ranks() {
        // More ranks = more (weaker) block-Jacobi blocks → ≥ iterations.
        let n = 240;
        let a = laplace_3d_like(n);
        let rhs = vec![1.0; n];
        let opts = SolverOptions { tolerance: 1e-8, max_iterations: 2000, ..Default::default() };
        let mut iters = Vec::new();
        for p in [1usize, 4] {
            let offsets = even_offsets(n, p);
            let results = run_ranks(p, |comm| {
                let r = comm.rank();
                let sys = LocalSystem::from_global(&a, offsets[r], offsets[r + 1]).expect("valid row slice");
                distributed_gmres(comm, &sys, &rhs[offsets[r]..offsets[r + 1]], &opts)
            });
            assert!(results[0].1.converged());
            iters.push(results[0].1.iterations);
        }
        assert!(iters[1] >= iters[0], "{iters:?}");
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let n = 50;
        let a = laplace_3d_like(n);
        let results = run_ranks(2, |comm| {
            let offsets = even_offsets(n, 2);
            let r = comm.rank();
            let sys = LocalSystem::from_global(&a, offsets[r], offsets[r + 1]).expect("valid row slice");
            let rhs = vec![0.0; offsets[r + 1] - offsets[r]];
            distributed_gmres(comm, &sys, &rhs, &SolverOptions::default())
        });
        for (x, s) in results {
            assert!(s.converged());
            assert_eq!(s.iterations, 0);
            assert!(x.iter().all(|&v| v == 0.0));
        }
    }
}

/// A [`LocalSystem`] with a precomputed ghost-exchange plan: instead of
/// allgathering the whole vector for each matvec, each rank exchanges only
/// the boundary entries its off-diagonal columns reference — the
/// communication pattern of a production distributed SpMV (and the one the
/// simulated-time model prices).
pub struct GhostedSystem {
    sys: LocalSystem,
    /// Global partition offsets (rank r owns rows offsets[r]..offsets[r+1]).
    offsets: Vec<usize>,
    /// Ghost columns this rank needs, sorted, grouped by owner:
    /// `recv_from[p]` = global indices owned by rank p that we reference.
    recv_from: Vec<Vec<usize>>,
    /// Local indices (relative to our row range) other ranks need from us:
    /// `send_to[p]` = our local indices rank p references.
    send_to: Vec<Vec<usize>>,
    /// Per-nnz column resolution: `Local(i)` into x_local, `Ghost(i)` into
    /// the received ghost buffer (ordered rank-major, then as in
    /// `recv_from`).
    col_map: Vec<ColRef>,
    /// Prefix offsets of each rank's block in the ghost buffer.
    ghost_offsets: Vec<usize>,
}

#[derive(Clone, Copy)]
enum ColRef {
    Local(usize),
    Ghost(usize),
}

const TAG_GHOST_PLAN: u64 = 5 << 32;
const TAG_GHOST_DATA: u64 = 6 << 32;

impl GhostedSystem {
    /// Build the exchange plan (one collective handshake, exactly as an
    /// MPI code would do at setup time).
    pub fn new(comm: &mut Comm, sys: LocalSystem, offsets: &[usize]) -> GhostedSystem {
        let p = comm.size();
        let me = comm.rank();
        assert_eq!(offsets.len(), p + 1);
        let lo = sys.row_begin;
        let hi = sys.row_end;
        // Collect needed remote columns per owner.
        let mut recv_from: Vec<Vec<usize>> = vec![Vec::new(); p];
        {
            let mut seen = std::collections::HashSet::new();
            for i in 0..(hi - lo) {
                let (cols, _) = sys.rows.row(i);
                for &c in cols {
                    if (c < lo || c >= hi) && seen.insert(c) {
                        let owner = brainshift_sparse::partition::part_of(offsets, c);
                        recv_from[owner].push(c);
                    }
                }
            }
            for v in &mut recv_from {
                v.sort_unstable();
            }
        }
        // Handshake: tell every owner which of its entries we need.
        for dest in 0..p {
            if dest != me {
                comm.send(dest, TAG_GHOST_PLAN, recv_from[dest].iter().map(|&i| i as f64).collect());
            }
        }
        let mut send_to: Vec<Vec<usize>> = vec![Vec::new(); p];
        for src in 0..p {
            if src != me {
                let req = comm.recv(src, TAG_GHOST_PLAN);
                send_to[src] = req.into_iter().map(|v| v as usize - lo).collect();
            }
        }
        // Ghost buffer layout + per-nnz column map.
        let mut ghost_offsets = vec![0usize; p + 1];
        for r in 0..p {
            ghost_offsets[r + 1] = ghost_offsets[r] + recv_from[r].len();
        }
        let mut ghost_slot = std::collections::HashMap::new();
        for r in 0..p {
            for (k, &c) in recv_from[r].iter().enumerate() {
                ghost_slot.insert(c, ghost_offsets[r] + k);
            }
        }
        let col_map: Vec<ColRef> = sys
            .rows
            .indices()
            .iter()
            .map(|&c| {
                if c >= lo && c < hi {
                    ColRef::Local(c - lo)
                } else {
                    ColRef::Ghost(ghost_slot[&c])
                }
            })
            .collect();
        GhostedSystem { sys, offsets: offsets.to_vec(), recv_from, send_to, col_map, ghost_offsets }
    }

    /// The underlying local system.
    pub fn local(&self) -> &LocalSystem {
        &self.sys
    }

    /// Number of ghost values received per matvec (comm volume proxy).
    pub fn ghost_count(&self) -> usize {
        *self.ghost_offsets.last().unwrap()
    }

    /// Distributed matvec via ghost exchange.
    pub fn matvec(&self, comm: &mut Comm, x_local: &[f64], y_local: &mut [f64]) {
        let p = comm.size();
        let me = comm.rank();
        debug_assert_eq!(x_local.len(), self.sys.row_end - self.sys.row_begin);
        // Send requested entries; receive our ghosts.
        for dest in 0..p {
            if dest != me && !self.send_to[dest].is_empty() {
                comm.send(
                    dest,
                    TAG_GHOST_DATA,
                    self.send_to[dest].iter().map(|&i| x_local[i]).collect(),
                );
            }
        }
        let mut ghosts = vec![0.0; self.ghost_count()];
        for src in 0..p {
            if src != me && !self.recv_from[src].is_empty() {
                let data = comm.recv(src, TAG_GHOST_DATA);
                ghosts[self.ghost_offsets[src]..self.ghost_offsets[src] + data.len()]
                    .copy_from_slice(&data);
            }
        }
        // Local multiply with the precomputed column map.
        let indptr = self.sys.rows.indptr();
        let vals = self.sys.rows.values();
        for (i, y) in y_local.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in indptr[i]..indptr[i + 1] {
                let xv = match self.col_map[k] {
                    ColRef::Local(j) => x_local[j],
                    ColRef::Ghost(g) => ghosts[g],
                };
                acc += vals[k] * xv;
            }
            *y = acc;
        }
        let _ = &self.offsets;
    }
}

#[cfg(test)]
mod ghost_tests {
    use super::*;
    use crate::comm::run_ranks;
    use brainshift_sparse::partition::even_offsets;
    use brainshift_sparse::TripletBuilder;

    fn banded(n: usize, bw: usize) -> CsrMatrix {
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 3.0 + (i % 5) as f64);
            for d in 1..=bw {
                if i >= d {
                    b.add(i, i - d, -0.4 / d as f64);
                }
                if i + d < n {
                    b.add(i, i + d, -0.3 / d as f64);
                }
            }
        }
        b.build()
    }

    #[test]
    fn ghost_matvec_matches_serial() {
        let n = 120;
        let a = banded(n, 7);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).sin()).collect();
        let mut serial = vec![0.0; n];
        a.spmv(&x, &mut serial);
        for p in [2usize, 3, 5] {
            let offsets = even_offsets(n, p);
            let results = run_ranks(p, |comm| {
                let r = comm.rank();
                let sys = LocalSystem::from_global(&a, offsets[r], offsets[r + 1]).expect("valid row slice");
                let g = GhostedSystem::new(comm, sys, &offsets);
                let mut y = vec![0.0; offsets[r + 1] - offsets[r]];
                g.matvec(comm, &x[offsets[r]..offsets[r + 1]], &mut y);
                (y, g.ghost_count())
            });
            let dist: Vec<f64> = results.iter().flat_map(|(y, _)| y.clone()).collect();
            for (d, s) in dist.iter().zip(&serial) {
                assert!((d - s).abs() < 1e-12, "p={p}");
            }
            // Ghost volume is bounded by the band overlap, far below n.
            for (_, gc) in &results {
                assert!(*gc <= 2 * 7, "ghosts {gc} exceed the band width");
            }
        }
    }

    #[test]
    fn ghosted_gmres_matches_allgather_gmres() {
        let n = 180;
        let a = banded(n, 5);
        let rhs: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let opts = SolverOptions { tolerance: 1e-9, max_iterations: 2000, ..Default::default() };
        let p = 3;
        let offsets = even_offsets(n, p);
        let plain = run_ranks(p, |comm| {
            let r = comm.rank();
            let sys = LocalSystem::from_global(&a, offsets[r], offsets[r + 1]).expect("valid row slice");
            distributed_gmres(comm, &sys, &rhs[offsets[r]..offsets[r + 1]], &opts)
        });
        let ghosted = run_ranks(p, |comm| {
            let r = comm.rank();
            let sys = LocalSystem::from_global(&a, offsets[r], offsets[r + 1]).expect("valid row slice");
            let g = GhostedSystem::new(comm, sys, &offsets);
            distributed_gmres_ghosted(comm, &g, &rhs[offsets[r]..offsets[r + 1]], &opts)
        });
        let xa: Vec<f64> = plain.iter().flat_map(|(x, _)| x.clone()).collect();
        let xb: Vec<f64> = ghosted.iter().flat_map(|(x, _)| x.clone()).collect();
        for ((i, a1), b1) in xa.iter().enumerate().zip(&xb) {
            assert!((a1 - b1).abs() < 1e-7, "x[{i}]: {a1} vs {b1}");
        }
        assert!(ghosted[0].1.converged());
    }

    #[test]
    fn ghost_exchange_much_smaller_than_allgather() {
        // For a banded system the ghost count per rank is O(bandwidth),
        // not O(n) — the point of the exchange plan.
        let n = 400;
        let a = banded(n, 3);
        let p = 4;
        let offsets = even_offsets(n, p);
        let counts = run_ranks(p, |comm| {
            let r = comm.rank();
            let sys = LocalSystem::from_global(&a, offsets[r], offsets[r + 1]).expect("valid row slice");
            GhostedSystem::new(comm, sys, &offsets).ghost_count()
        });
        for (r, &c) in counts.iter().enumerate() {
            let interior = r > 0 && r + 1 < p;
            let bound = if interior { 6 } else { 3 };
            assert!(c <= bound, "rank {r}: {c} ghosts");
            assert!(c < (n / p) / 10, "ghosts not sparse");
        }
    }
}
