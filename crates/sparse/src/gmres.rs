//! Restarted GMRES.
//!
//! The paper's solver configuration: "We solve the system of equations with
//! the ... (PETSc) package using the Generalized Minimal Residual (GMRES)
//! solver with block Jacobi preconditioning." This is GMRES(m) with left
//! preconditioning, modified Gram–Schmidt orthogonalization and Givens
//! rotations for the least-squares update.
//!
//! Modified Gram–Schmidt is this repo's choice, not PETSc's default
//! (PETSc orthogonalizes with *classical* Gram–Schmidt without
//! refinement; `-ksp_gmres_modifiedgramschmidt` is its opt-in). MGS
//! projects against one basis vector at a time, so every coefficient is
//! one dot product with a fixed summation order — which is what keeps a
//! solve bit-reproducible — and it is stable enough at restart length m
//! that no reorthogonalization pass is needed. Step j costs j+2 sweeps
//! over the work vector (see [`gmres_with_workspace`]).

use crate::dense::{axpy, axpy_then_dot, dot, norm2};
use crate::error::SparseError;
use crate::precond::Preconditioner;
use crate::solver::{Deadline, LinearOperator, SolveStats, SolverOptions, StopReason};

/// Preallocated scratch memory for the Krylov solvers.
///
/// Every method needs a handful of n-vectors; GMRES(m) on an n-dof
/// system also needs an (m+1)×n Krylov basis plus m-sized Hessenberg and
/// rotation storage. Allocating them inside the solver costs allocator
/// traffic and page faults on every scan of an intraoperative sequence.
/// A `KrylovWorkspace` starts empty, grows on first use and is reused for
/// every later solve on the same system, so repeat solves allocate
/// nothing that grows with n. The basis is sized by the first GMRES run
/// only: a solve that converges on the CG rung never allocates it.
#[derive(Debug, Default)]
pub struct KrylovWorkspace {
    n: usize,
    m: usize,
    /// Krylov basis, flat row-major: vector `j` lives at `j*n..(j+1)*n`.
    basis: Vec<f64>,
    /// Hessenberg factors, column-major `h[i + j*(m+1)]`.
    h: Vec<f64>,
    cs: Vec<f64>,
    sn: Vec<f64>,
    g: Vec<f64>,
    y: Vec<f64>,
    // The n-vectors, named for their GMRES roles; CG borrows four of them.
    pub(crate) w: Vec<f64>,
    pub(crate) r: Vec<f64>,
    pub(crate) raw: Vec<f64>,
    pub(crate) work_ax: Vec<f64>,
    pub(crate) zb: Vec<f64>,
}

impl KrylovWorkspace {
    /// Workspace for an `n`-dof system: the n-vectors sized now, the
    /// GMRES basis left to the first GMRES run.
    pub fn new(n: usize) -> Self {
        let mut ws = KrylovWorkspace::default();
        ws.ensure_vectors(n);
        ws
    }

    /// Size the n-vectors for an `n`-dof system; no-op (and no
    /// allocation) when they already fit.
    pub(crate) fn ensure_vectors(&mut self, n: usize) {
        if self.n == n {
            return;
        }
        self.n = n;
        self.m = 0;
        for v in [&mut self.w, &mut self.r, &mut self.raw, &mut self.work_ax, &mut self.zb] {
            v.resize(n, 0.0);
        }
    }

    /// Size everything GMRES(`restart`) needs on an `n`-dof system.
    fn ensure_basis(&mut self, n: usize, restart: usize) {
        let m = restart.max(1);
        self.ensure_vectors(n);
        if self.m == m {
            return;
        }
        self.m = m;
        self.basis.resize((m + 1) * n, 0.0);
        self.h.resize((m + 1) * m, 0.0);
        self.cs.resize(m, 0.0);
        self.sn.resize(m, 0.0);
        self.g.resize(m + 1, 0.0);
        self.y.resize(m, 0.0);
    }

    /// Total scratch footprint in bytes (diagnostics).
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.basis.as_slice())
            + std::mem::size_of_val(self.h.as_slice())
            + std::mem::size_of_val(self.cs.as_slice())
            + std::mem::size_of_val(self.sn.as_slice())
            + std::mem::size_of_val(self.g.as_slice())
            + std::mem::size_of_val(self.y.as_slice())
            + std::mem::size_of_val(self.w.as_slice())
            + std::mem::size_of_val(self.r.as_slice())
            + std::mem::size_of_val(self.raw.as_slice())
            + std::mem::size_of_val(self.work_ax.as_slice())
            + std::mem::size_of_val(self.zb.as_slice())
    }
}

/// Solve `A x = b` with left-preconditioned restarted GMRES. `x` holds the
/// initial guess on entry and the solution on exit.
///
/// Allocates a fresh [`KrylovWorkspace`] per call; hot paths that solve
/// repeatedly on the same system should hold a workspace and call
/// [`gmres_with_workspace`].
///
/// A `b` or `x` whose length does not match `a.dim()` is a typed
/// [`SparseError::DimensionMismatch`] — it used to be an assert that
/// panicked the worker thread on a malformed RHS.
pub fn gmres(
    a: &dyn LinearOperator,
    precond: &dyn Preconditioner,
    b: &[f64],
    x: &mut [f64],
    opts: &SolverOptions,
) -> Result<SolveStats, SparseError> {
    let mut ws = KrylovWorkspace::default();
    gmres_with_workspace(a, precond, b, x, opts, &mut ws)
}

/// [`gmres`] with caller-owned scratch memory: after the workspace's
/// first use at this problem size an iteration makes no O(n) allocation
/// (basis, residual, and Hessenberg storage all live in `ws`, and the
/// block-Jacobi and IC(0) preconditioners solve straight into their
/// output). What remains per iteration is O(threads): above the BLAS-1
/// parallel threshold every kernel call boxes one task per chunk for the
/// thread pool and collects one partial sum per chunk.
///
/// Krylov step j orthogonalizes in j+2 sweeps over the work vector `w`:
/// one dot product, then j+1 fused
/// [`axpy_then_dot`](crate::dense::axpy_then_dot) passes that each
/// subtract the previous projection and accumulate the next coefficient
/// (the last one accumulates ‖w‖²) — the arithmetic of j+1 × (`dot`,
/// `axpy`) + `norm2`, bit for bit, in j+2 trips through the pool
/// instead of 2j+3.
///
/// Convergence is declared on the **true unpreconditioned** relative
/// residual `‖b − A x‖/‖b‖`, verified with an explicit matvec at the end
/// of each restart cycle. The preconditioned recurrence only *suggests*
/// when to end a cycle early: with an ill-conditioned preconditioner
/// (e.g. an incomplete factorization of a high-contrast matrix) the
/// recurrence norm can collapse while the actual residual has not moved,
/// and trusting it returns garbage "converged" solutions.
pub fn gmres_with_workspace(
    a: &dyn LinearOperator,
    precond: &dyn Preconditioner,
    b: &[f64],
    x: &mut [f64],
    opts: &SolverOptions,
    ws: &mut KrylovWorkspace,
) -> Result<SolveStats, SparseError> {
    let n = a.dim();
    if b.len() != n {
        return Err(SparseError::DimensionMismatch { what: "rhs", expected: n, got: b.len() });
    }
    if x.len() != n {
        return Err(SparseError::DimensionMismatch { what: "x0", expected: n, got: x.len() });
    }
    let m = opts.restart.max(1);
    ws.ensure_basis(n, m);
    let deadline = Deadline::from_budget(opts.time_budget);

    let mut history = Vec::new();
    let mut total_iters = 0usize;
    // Krylov cycles started; `restarts` reported is cycles beyond the
    // first (a solve that never starts a cycle also reports 0).
    let mut cycles = 0usize;

    // Preconditioned rhs norm scales the inner recurrence; the true
    // (unpreconditioned) norm scales the convergence criterion.
    precond.apply(b, &mut ws.zb);
    let b_norm = norm2(&ws.zb).max(1e-300);
    let b_norm_raw = norm2(b);
    if b_norm_raw == 0.0 {
        // b = 0 → x = 0. Record the (zero) residual so the history
        // contract holds on this exit too.
        x.iter_mut().for_each(|v| *v = 0.0);
        if opts.record_history {
            history.push(0.0);
        }
        return Ok(SolveStats {
            reason: StopReason::Converged,
            iterations: 0,
            relative_residual: 0.0,
            history,
            restarts: 0,
        });
    }

    let mut last_rel = f64::INFINITY;
    // The inner cycle breaks on the *preconditioned* recurrence norm,
    // which can undershoot the true residual by orders of magnitude (the
    // preconditioner's conditioning). Whenever outer verification fails,
    // scale the inner target down by the observed ratio so the next cycle
    // actually makes progress instead of re-breaking at the same point.
    let mut inner_tol = opts.tolerance;

    loop {
        // True residual: raw = b − A x (this is the convergence check).
        a.apply(x, &mut ws.work_ax);
        for i in 0..n {
            ws.raw[i] = b[i] - ws.work_ax[i];
        }
        let raw_rel = norm2(&ws.raw) / b_norm_raw;
        if opts.record_history && history.is_empty() {
            history.push(raw_rel);
        }
        if raw_rel <= opts.tolerance {
            return Ok(SolveStats {
                reason: StopReason::Converged,
                iterations: total_iters,
                relative_residual: raw_rel,
                history,
                restarts: cycles.saturating_sub(1),
            });
        }
        if last_rel.is_finite() && last_rel > 0.0 && raw_rel > opts.tolerance {
            let needed = opts.tolerance * (last_rel / raw_rel) * 0.5;
            inner_tol = inner_tol.min(needed).max(1e-30);
        }
        if total_iters >= opts.max_iterations {
            if opts.record_history {
                history.push(raw_rel);
            }
            return Ok(SolveStats {
                reason: StopReason::MaxIterations,
                iterations: total_iters,
                relative_residual: raw_rel,
                history,
                restarts: cycles.saturating_sub(1),
            });
        }
        if deadline.expired() {
            if opts.record_history {
                history.push(raw_rel);
            }
            return Ok(SolveStats {
                reason: StopReason::TimeBudget,
                iterations: total_iters,
                relative_residual: raw_rel,
                history,
                restarts: cycles.saturating_sub(1),
            });
        }
        // Preconditioned residual starts the Krylov cycle.
        precond.apply(&ws.raw, &mut ws.r);
        let beta = norm2(&ws.r);
        if beta < 1e-300 {
            // Preconditioner annihilated a nonzero residual: breakdown.
            // Same SolveStats shape as the converged path — reason, true
            // relative residual, and a history whose last entry matches.
            if opts.record_history {
                history.push(raw_rel);
            }
            return Ok(SolveStats {
                reason: StopReason::Breakdown,
                iterations: total_iters,
                relative_residual: raw_rel,
                history,
                restarts: cycles.saturating_sub(1),
            });
        }
        last_rel = beta / b_norm;
        cycles += 1;

        // v₀ = r/β into basis slot 0 (no allocation: slots are reused).
        for (slot, &ri) in ws.basis[..n].iter_mut().zip(ws.r.iter()) {
            *slot = ri / beta;
        }
        ws.g.iter_mut().for_each(|v| *v = 0.0);
        ws.g[0] = beta;

        let mut k_used = 0usize;
        let mut broke_down = false;

        for j in 0..m {
            if total_iters >= opts.max_iterations || deadline.expired() {
                break;
            }
            total_iters += 1;
            // w = M⁻¹ A v_j
            a.apply(&ws.basis[j * n..(j + 1) * n], &mut ws.work_ax);
            precond.apply(&ws.work_ax, &mut ws.w);
            // Modified Gram–Schmidt in j+2 sweeps over w: each sweep
            // subtracts the previous projection and, in the same pass,
            // accumulates the next coefficient (the last one ‖w‖²).
            let mut hij = dot(&ws.w, &ws.basis[..n]);
            for i in 0..=j {
                ws.h[i + j * (m + 1)] = hij;
                let vi = &ws.basis[i * n..(i + 1) * n];
                let next = (i < j).then(|| &ws.basis[(i + 1) * n..(i + 2) * n]);
                hij = axpy_then_dot(-hij, vi, &mut ws.w, next);
            }
            let wnorm = hij.sqrt();
            ws.h[(j + 1) + j * (m + 1)] = wnorm;

            // Apply previous Givens rotations to the new column.
            for i in 0..j {
                let hi = ws.h[i + j * (m + 1)];
                let hi1 = ws.h[(i + 1) + j * (m + 1)];
                ws.h[i + j * (m + 1)] = ws.cs[i] * hi + ws.sn[i] * hi1;
                ws.h[(i + 1) + j * (m + 1)] = -ws.sn[i] * hi + ws.cs[i] * hi1;
            }
            // New rotation to annihilate h[j+1, j].
            let hjj = ws.h[j + j * (m + 1)];
            let hj1j = ws.h[(j + 1) + j * (m + 1)];
            let denom = (hjj * hjj + hj1j * hj1j).sqrt();
            if denom < 1e-300 {
                broke_down = true;
                k_used = j;
                break;
            }
            ws.cs[j] = hjj / denom;
            ws.sn[j] = hj1j / denom;
            ws.h[j + j * (m + 1)] = denom;
            ws.h[(j + 1) + j * (m + 1)] = 0.0;
            let gj = ws.g[j];
            ws.g[j] = ws.cs[j] * gj;
            ws.g[j + 1] = -ws.sn[j] * gj;

            k_used = j + 1;
            last_rel = ws.g[j + 1].abs() / b_norm;
            if opts.record_history {
                history.push(last_rel);
            }

            if last_rel <= inner_tol {
                break;
            }
            if wnorm < 1e-300 {
                // Happy breakdown: exact solution in the current subspace.
                break;
            }
            // v_{j+1} = w/‖w‖ into the next basis slot.
            for (slot, &wi) in ws.basis[(j + 1) * n..(j + 2) * n].iter_mut().zip(ws.w.iter()) {
                *slot = wi / wnorm;
            }
        }

        // Back-solve the triangular system H y = g and update x.
        if k_used > 0 {
            for i in (0..k_used).rev() {
                let mut acc = ws.g[i];
                for j2 in (i + 1)..k_used {
                    acc -= ws.h[i + j2 * (m + 1)] * ws.y[j2];
                }
                ws.y[i] = acc / ws.h[i + i * (m + 1)];
            }
            for j2 in 0..k_used {
                axpy(ws.y[j2], &ws.basis[j2 * n..(j2 + 1) * n], x);
            }
        }

        let _ = last_rel;
        if broke_down {
            // Best-effort iterate already applied; report honestly with
            // the true residual (and close the history with it).
            a.apply(x, &mut ws.work_ax);
            for i in 0..n {
                ws.raw[i] = b[i] - ws.work_ax[i];
            }
            let final_rel = norm2(&ws.raw) / b_norm_raw;
            if opts.record_history {
                history.push(final_rel);
            }
            return Ok(SolveStats {
                reason: StopReason::Breakdown,
                iterations: total_iters,
                relative_residual: final_rel,
                history,
                restarts: cycles.saturating_sub(1),
            });
        }
        // Loop back: the outer loop re-verifies with the true residual
        // (and terminates on tolerance or iteration budget).
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{CsrMatrix, TripletBuilder};
    use crate::precond::{BlockJacobiPrecond, BlockSolve, Ic0, IdentityPrecond, JacobiPrecond};
    use rand::{Rng, SeedableRng};

    // The entry points return `Result` (dimension mismatches are typed
    // errors, not panics); every numeric test here uses well-formed
    // shapes, so shadow them with unwrapping wrappers and keep the
    // assertions about convergence behaviour.
    fn gmres(
        a: &dyn LinearOperator,
        p: &dyn Preconditioner,
        b: &[f64],
        x: &mut [f64],
        o: &SolverOptions,
    ) -> SolveStats {
        super::gmres(a, p, b, x, o).expect("test shapes agree")
    }
    fn gmres_with_workspace(
        a: &dyn LinearOperator,
        p: &dyn Preconditioner,
        b: &[f64],
        x: &mut [f64],
        o: &SolverOptions,
        ws: &mut KrylovWorkspace,
    ) -> SolveStats {
        super::gmres_with_workspace(a, p, b, x, o, ws).expect("test shapes agree")
    }

    #[test]
    fn dimension_mismatch_is_a_typed_error_not_a_panic() {
        let a = laplace_1d(8);
        let mut x = vec![0.0; 8];
        let r = super::gmres(&a, &IdentityPrecond, &[1.0; 5], &mut x, &SolverOptions::default());
        match r {
            Err(SparseError::DimensionMismatch { what: "rhs", expected: 8, got: 5 }) => {}
            other => panic!("expected rhs DimensionMismatch, got {other:?}"),
        }
        let r = super::gmres(
            &a,
            &IdentityPrecond,
            &[1.0; 8],
            &mut [0.0; 3],
            &SolverOptions::default(),
        );
        match r {
            Err(SparseError::DimensionMismatch { what: "x0", expected: 8, got: 3 }) => {}
            other => panic!("expected x0 DimensionMismatch, got {other:?}"),
        }
    }

    fn laplace_1d(n: usize) -> CsrMatrix {
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

    fn random_dd(n: usize, seed: u64) -> CsrMatrix {
        // Random sparse diagonally dominant (nonsymmetric) matrix.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            let mut offsum = 0.0;
            for _ in 0..4 {
                let j = rng.gen_range(0..n);
                if j != i {
                    let v: f64 = rng.gen_range(-1.0..1.0);
                    b.add(i, j, v);
                    offsum += v.abs();
                }
            }
            b.add(i, i, offsum + 1.0 + rng.gen_range(0.0..1.0));
        }
        b.build()
    }

    fn check_solution(a: &CsrMatrix, b: &[f64], x: &[f64], tol: f64) {
        let mut ax = vec![0.0; b.len()];
        a.spmv(x, &mut ax);
        let res: f64 = ax.iter().zip(b).map(|(p, q)| (p - q).powi(2)).sum::<f64>().sqrt();
        let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(res / bn.max(1e-300) < tol, "true residual {} too big", res / bn);
    }

    #[test]
    fn solves_laplace_unpreconditioned() {
        let n = 50;
        let a = laplace_1d(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin()).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x_true, &mut b);
        let mut x = vec![0.0; n];
        let stats = gmres(&a, &IdentityPrecond, &b, &mut x, &SolverOptions { tolerance: 1e-10, ..Default::default() });
        assert!(stats.converged(), "{stats:?}");
        check_solution(&a, &b, &x, 1e-8);
    }

    #[test]
    fn zero_rhs_gives_zero_solution() {
        let a = laplace_1d(10);
        let b = vec![0.0; 10];
        let mut x = vec![1.0; 10];
        let stats = gmres(&a, &IdentityPrecond, &b, &mut x, &SolverOptions::default());
        assert!(stats.converged());
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn restart_count_reflects_cycles() {
        let n = 120;
        let a = laplace_1d(n);
        let b = vec![1.0; n];

        // Large restart: converges inside the first cycle → 0 restarts.
        let mut x = vec![0.0; n];
        let one_cycle = gmres(
            &a,
            &IdentityPrecond,
            &b,
            &mut x,
            &SolverOptions { tolerance: 1e-8, restart: 200, ..Default::default() },
        );
        assert!(one_cycle.converged());
        assert_eq!(one_cycle.restarts, 0);

        // Tiny restart: a 1-D Laplacian needs many cycles at m = 2.
        let mut x = vec![0.0; n];
        let many = gmres(
            &a,
            &IdentityPrecond,
            &b,
            &mut x,
            &SolverOptions { tolerance: 1e-8, restart: 2, max_iterations: 100_000, ..Default::default() },
        );
        assert!(many.converged());
        assert!(many.restarts > 0, "m=2 should have restarted: {many:?}");
        // Restart cycles are bounded by iterations / 1 per cycle minimum.
        assert!(many.restarts < many.iterations);

        // Zero RHS: no cycle ever starts.
        let stats = gmres(&a, &IdentityPrecond, &vec![0.0; n], &mut vec![1.0; n], &SolverOptions::default());
        assert_eq!(stats.restarts, 0);
    }

    #[test]
    fn preconditioning_reduces_iterations() {
        let n = 200;
        let a = laplace_1d(n);
        let b = vec![1.0; n];
        let opts = SolverOptions { tolerance: 1e-8, restart: 20, ..Default::default() };

        let mut x1 = vec![0.0; n];
        let s_none = gmres(&a, &IdentityPrecond, &b, &mut x1, &opts);
        let mut x2 = vec![0.0; n];
        let ic = Ic0::new(&a).unwrap();
        let s_ic = gmres(&a, &ic, &b, &mut x2, &opts);
        assert!(s_ic.converged());
        // IC(0) on a tridiagonal matrix is an exact factorization: one or
        // two iterations.
        assert!(s_ic.iterations <= 3, "ic0 took {}", s_ic.iterations);
        assert!(s_ic.iterations < s_none.iterations);
        check_solution(&a, &b, &x2, 1e-6);
    }

    #[test]
    fn block_jacobi_converges_and_iterations_grow_with_blocks() {
        let n = 240;
        let a = laplace_1d(n);
        let b = vec![1.0; n];
        let opts = SolverOptions { tolerance: 1e-8, max_iterations: 5000, ..Default::default() };
        let mut iters = Vec::new();
        for nb in [1usize, 4, 16] {
            let p = BlockJacobiPrecond::new(&a, nb, BlockSolve::DenseLu).unwrap();
            let mut x = vec![0.0; n];
            let s = gmres(&a, &p, &b, &mut x, &opts);
            assert!(s.converged(), "nb={nb}: {s:?}");
            check_solution(&a, &b, &x, 1e-6);
            iters.push(s.iterations);
        }
        // More blocks → weaker preconditioner → more iterations.
        assert!(iters[0] <= iters[1] && iters[1] <= iters[2], "{iters:?}");
        assert!(iters[0] <= 3);
    }

    #[test]
    fn solves_random_nonsymmetric_systems() {
        for seed in 0..3u64 {
            let n = 120;
            let a = random_dd(n, seed);
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64) * 0.01 - 0.5).collect();
            let mut b = vec![0.0; n];
            a.spmv(&x_true, &mut b);
            let mut x = vec![0.0; n];
            let p = JacobiPrecond::new(&a);
            let stats = gmres(&a, &p, &b, &mut x, &SolverOptions { tolerance: 1e-10, ..Default::default() });
            assert!(stats.converged());
            check_solution(&a, &b, &x, 1e-8);
        }
    }

    #[test]
    fn respects_iteration_budget() {
        let n = 400;
        let a = laplace_1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let stats = gmres(
            &a,
            &IdentityPrecond,
            &b,
            &mut x,
            &SolverOptions { tolerance: 1e-14, max_iterations: 5, ..Default::default() },
        );
        assert_eq!(stats.reason, StopReason::MaxIterations);
        assert!(stats.iterations <= 6);
    }

    #[test]
    fn warm_start_helps() {
        let n = 100;
        let a = laplace_1d(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).cos()).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x_true, &mut b);
        // Start from the exact solution: should converge immediately.
        let mut x = x_true.clone();
        let stats = gmres(&a, &IdentityPrecond, &b, &mut x, &SolverOptions::default());
        assert!(stats.converged());
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn never_claims_convergence_with_lying_preconditioner() {
        // Regression test: a near-singular preconditioner collapses the
        // *preconditioned* residual norm while the true residual stays
        // large; GMRES must not report Converged unless ‖b − Ax‖/‖b‖ is
        // actually below tolerance.
        struct Liar;
        impl Preconditioner for Liar {
            fn apply(&self, r: &[f64], z: &mut [f64]) {
                // Project onto the first coordinate only: rank-1, so the
                // preconditioned residual can vanish while r doesn't.
                z.iter_mut().for_each(|v| *v = 0.0);
                z[0] = r[0];
            }
            fn name(&self) -> &'static str {
                "liar"
            }
        }
        use crate::precond::Preconditioner;
        let n = 40;
        let a = laplace_1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let stats = gmres(&a, &Liar, &b, &mut x, &SolverOptions { tolerance: 1e-8, max_iterations: 200, ..Default::default() });
        if stats.converged() {
            // If it claims convergence, the TRUE residual must agree.
            let mut ax = vec![0.0; n];
            a.spmv(&x, &mut ax);
            let res: f64 = ax.iter().zip(&b).map(|(p, q)| (p - q).powi(2)).sum::<f64>().sqrt();
            let bn = (n as f64).sqrt();
            assert!(res / bn <= 1e-7, "claimed convergence with residual {}", res / bn);
        }
    }

    #[test]
    fn workspace_reuse_matches_cold_solve_and_does_not_reallocate() {
        let n = 150;
        let a = laplace_1d(n);
        // Full GMRES (restart ≥ n) so the 1-D Laplacian converges at
        // tight tolerance without restart stagnation.
        let opts = SolverOptions { tolerance: 1e-10, restart: 160, ..Default::default() };
        let p = JacobiPrecond::new(&a);
        let mut ws = KrylovWorkspace::default();

        for seed in 0..4u64 {
            let x_true: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.11 + seed as f64).sin()).collect();
            let mut b = vec![0.0; n];
            a.spmv(&x_true, &mut b);

            let mut x_cold = vec![0.0; n];
            let s_cold = gmres(&a, &p, &b, &mut x_cold, &opts);
            assert!(s_cold.converged());

            // After the first solve, the workspace's buffers must be
            // stable: same pointer, same capacity (no reallocation).
            let before = (ws.basis.as_ptr(), ws.basis.capacity(), ws.w.as_ptr(), ws.h.as_ptr());
            let mut x_warm = vec![0.0; n];
            let s_warm = gmres_with_workspace(&a, &p, &b, &mut x_warm, &opts, &mut ws);
            assert!(s_warm.converged());
            let after = (ws.basis.as_ptr(), ws.basis.capacity(), ws.w.as_ptr(), ws.h.as_ptr());
            if seed > 0 {
                assert_eq!(before, after, "workspace reallocated on reuse");
            }

            assert_eq!(s_cold.iterations, s_warm.iterations);
            for i in 0..n {
                assert!((x_cold[i] - x_warm[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn workspace_resizes_for_larger_system() {
        let mut ws = KrylovWorkspace::default();
        let small = laplace_1d(10);
        let stats = gmres_with_workspace(
            &small,
            &IdentityPrecond,
            &[1.0; 10],
            &mut [0.0; 10],
            &SolverOptions { restart: 5, ..Default::default() },
            &mut ws,
        );
        assert!(stats.converged());
        let a = laplace_1d(80);
        let b = vec![1.0; 80];
        let mut x = vec![0.0; 80];
        let opts = SolverOptions { tolerance: 1e-8, ..Default::default() };
        let stats = gmres_with_workspace(&a, &IdentityPrecond, &b, &mut x, &opts, &mut ws);
        assert!(stats.converged());
        check_solution(&a, &b, &x, 1e-6);
        assert!(ws.bytes() >= (opts.restart + 1) * 80 * 8);
    }

    #[test]
    fn zero_rhs_history_is_consistent_with_converged_path() {
        let a = laplace_1d(10);
        let b = vec![0.0; 10];
        let mut x = vec![1.0; 10];
        let opts = SolverOptions { record_history: true, ..Default::default() };
        let stats = gmres(&a, &IdentityPrecond, &b, &mut x, &opts);
        assert!(stats.converged());
        assert_eq!(stats.history, vec![0.0]);
        assert_eq!(stats.history.last().copied(), Some(stats.relative_residual));
    }

    #[test]
    fn max_iterations_history_ends_with_final_residual() {
        let n = 400;
        let a = laplace_1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let stats = gmres(
            &a,
            &IdentityPrecond,
            &b,
            &mut x,
            &SolverOptions {
                tolerance: 1e-14,
                max_iterations: 5,
                record_history: true,
                ..Default::default()
            },
        );
        assert_eq!(stats.reason, StopReason::MaxIterations);
        assert!(!stats.history.is_empty());
        let last = *stats.history.last().unwrap();
        assert!(
            (last - stats.relative_residual).abs() <= 1e-12 * stats.relative_residual.max(1.0),
            "history tail {last} vs relative_residual {}",
            stats.relative_residual
        );
    }

    #[test]
    fn breakdown_history_ends_with_final_residual() {
        // A rank-deficient preconditioner forces the annihilation
        // breakdown path after the first corrective cycle.
        struct Annihilator;
        impl Preconditioner for Annihilator {
            fn apply(&self, _r: &[f64], z: &mut [f64]) {
                z.iter_mut().for_each(|v| *v = 0.0);
            }
            fn name(&self) -> &'static str {
                "annihilator"
            }
        }
        use crate::precond::Preconditioner;
        let n = 20;
        let a = laplace_1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let opts = SolverOptions { record_history: true, ..Default::default() };
        let stats = gmres(&a, &Annihilator, &b, &mut x, &opts);
        assert_eq!(stats.reason, StopReason::Breakdown);
        assert!(!stats.history.is_empty());
        assert_eq!(stats.history.last().copied(), Some(stats.relative_residual));
    }

    #[test]
    fn zero_time_budget_stops_immediately_with_best_iterate() {
        let n = 400;
        let a = laplace_1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let stats = gmres(
            &a,
            &IdentityPrecond,
            &b,
            &mut x,
            &SolverOptions {
                tolerance: 1e-14,
                time_budget: Some(std::time::Duration::ZERO),
                record_history: true,
                ..Default::default()
            },
        );
        assert_eq!(stats.reason, StopReason::TimeBudget);
        assert_eq!(stats.history.last().copied(), Some(stats.relative_residual));
    }

    #[test]
    fn history_is_monotone_within_cycle() {
        let n = 150;
        let a = laplace_1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let stats = gmres(
            &a,
            &IdentityPrecond,
            &b,
            &mut x,
            &SolverOptions { tolerance: 1e-10, restart: 200, record_history: true, ..Default::default() },
        );
        assert!(stats.converged());
        // GMRES minimizes the residual, so within a single cycle the
        // recorded history must be non-increasing.
        for w in stats.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }
}
