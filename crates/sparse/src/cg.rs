//! Preconditioned conjugate gradients.
//!
//! The FEM stiffness matrix is symmetric positive definite after Dirichlet
//! substitution, and block-Jacobi IC(0) is an SPD preconditioner, so CG
//! needs neither GMRES's Krylov basis nor its orthogonalization sweeps. It
//! is the first rung of the escalation ladder ([`crate::solve_escalated`]);
//! a CG solve that does not converge hands its iterate to GMRES.

use crate::dense::{axpy, axpy_then_dot, aypx, dot, norm2};
use crate::error::SparseError;
use crate::gmres::KrylovWorkspace;
use crate::precond::Preconditioner;
use crate::solver::{Deadline, LinearOperator, SolveStats, SolverOptions, StopReason};

/// Solve `A x = b` (A symmetric positive definite, `precond` SPD) with
/// preconditioned CG. `x` holds the initial guess on entry and the
/// solution on exit.
///
/// The vectors live in `ws`, so a solve on a warm workspace allocates
/// nothing that grows with n, and every vector operation is a
/// [`crate::dense`] kernel, so the result is the same bits at any thread
/// count.
/// The solve stops with [`StopReason::TimeBudget`] once
/// `opts.time_budget` has elapsed (one clock read per iteration).
///
/// Convergence is declared on the **true** relative residual
/// `‖b − A x‖/‖b‖`: when the recurrence residual reaches the tolerance it
/// is checked with an explicit matvec and, if rounding has let the two
/// drift apart, replaced by the true one and the iteration continues.
/// Every exit reports the true residual. Mismatched `b`/`x` lengths are a
/// typed [`SparseError::DimensionMismatch`], not a panic.
pub fn conjugate_gradient(
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
    ws.ensure_vectors(n);
    let KrylovWorkspace { r, w: z, zb: p, work_ax: ap, .. } = ws;
    let deadline = Deadline::from_budget(opts.time_budget);
    let mut history = Vec::new();
    let stats = |reason, iterations, relative_residual, history| SolveStats {
        reason,
        iterations,
        relative_residual,
        history,
        restarts: 0,
    };

    let b_norm = norm2(b);
    if b_norm == 0.0 {
        x.iter_mut().for_each(|v| *v = 0.0);
        if opts.record_history {
            history.push(0.0);
        }
        return Ok(stats(StopReason::Converged, 0, 0.0, history));
    }
    // The true relative residual of `x`, left in `r`.
    let true_residual = |x: &[f64], r: &mut [f64], ap: &mut [f64]| {
        a.apply(x, ap);
        for ((ri, bi), ai) in r.iter_mut().zip(b).zip(ap.iter()) {
            *ri = bi - ai;
        }
        norm2(r) / b_norm
    };

    let mut rel = true_residual(x, r, ap);
    if opts.record_history {
        history.push(rel);
    }
    let mut iterations = 0usize;
    // Restarts the recurrence from the residual in `r`: z = M⁻¹r, p = z.
    let mut rz = 0.0;
    let restart = |r: &[f64], z: &mut [f64], p: &mut [f64], rz: &mut f64| {
        precond.apply(r, z);
        p.copy_from_slice(z);
        *rz = dot(r, z);
    };
    if rel > opts.tolerance {
        restart(r, z, p, &mut rz);
    }
    let reason = loop {
        if rel <= opts.tolerance {
            break StopReason::Converged;
        }
        if iterations >= opts.max_iterations {
            break StopReason::MaxIterations;
        }
        if deadline.expired() {
            break StopReason::TimeBudget;
        }
        if degenerate(rz) {
            break StopReason::Breakdown;
        }
        iterations += 1;
        a.apply(p, ap);
        let pap = dot(p, ap);
        if degenerate(pap) {
            break StopReason::Breakdown;
        }
        let alpha = rz / pap;
        axpy(alpha, p, x);
        rel = axpy_then_dot(-alpha, ap, r, None).sqrt() / b_norm;
        if opts.record_history {
            history.push(rel);
        }
        if rel <= opts.tolerance {
            // Verify on the true residual; on drift, continue from it.
            rel = true_residual(x, r, ap);
            if rel <= opts.tolerance {
                return Ok(stats(StopReason::Converged, iterations, rel, history));
            }
            restart(r, z, p, &mut rz);
            continue;
        }
        precond.apply(r, z);
        let rz_new = dot(r, z);
        aypx(rz_new / rz, z, p);
        rz = rz_new;
    };
    if reason != StopReason::Converged {
        rel = true_residual(x, r, ap);
        if opts.record_history {
            history.push(rel);
        }
    }
    Ok(stats(reason, iterations, rel, history))
}

/// A CG scalar (`rᵀz`, `pᵀAp`) that cannot be divided by: zero, NaN, or
/// too small to trust — a breakdown of the recurrence.
fn degenerate(v: f64) -> bool {
    v.is_nan() || v.abs() < 1e-300
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{CsrMatrix, TripletBuilder};
    use crate::precond::{IdentityPrecond, JacobiPrecond};
    use std::time::Duration;

    // Shadow the Result-returning entry point: test shapes always agree.
    fn conjugate_gradient(
        a: &dyn LinearOperator,
        p: &dyn Preconditioner,
        b: &[f64],
        x: &mut [f64],
        o: &SolverOptions,
    ) -> SolveStats {
        super::conjugate_gradient(a, p, b, x, o, &mut KrylovWorkspace::default()).expect("test shapes agree")
    }

    fn true_rel(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
        let mut ax = vec![0.0; b.len()];
        a.spmv(x, &mut ax);
        let res: f64 = ax.iter().zip(b).map(|(p, q)| (p - q).powi(2)).sum::<f64>().sqrt();
        res / b.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    #[test]
    fn dimension_mismatch_is_typed() {
        let a = laplace_1d(6);
        assert!(matches!(
            super::conjugate_gradient(
                &a,
                &IdentityPrecond,
                &[1.0; 6],
                &mut [0.0; 2],
                &SolverOptions::default(),
                &mut KrylovWorkspace::default(),
            ),
            Err(SparseError::DimensionMismatch { what: "x0", expected: 6, got: 2 })
        ));
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

    #[test]
    fn cg_solves_spd_system() {
        let n = 80;
        let a = laplace_1d(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x_true, &mut b);
        let mut x = vec![0.0; n];
        let stats = conjugate_gradient(&a, &IdentityPrecond, &b, &mut x, &SolverOptions { tolerance: 1e-12, ..Default::default() });
        assert!(stats.converged());
        for (a, b) in x.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn cg_exact_in_n_iterations() {
        // In exact arithmetic CG converges in at most n iterations.
        let n = 30;
        let a = laplace_1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let stats = conjugate_gradient(&a, &IdentityPrecond, &b, &mut x, &SolverOptions { tolerance: 1e-10, ..Default::default() });
        assert!(stats.converged());
        assert!(stats.iterations <= n + 2);
    }

    #[test]
    fn cg_zero_rhs() {
        let a = laplace_1d(10);
        let mut x = vec![5.0; 10];
        let stats = conjugate_gradient(&a, &IdentityPrecond, &[0.0; 10], &mut x, &SolverOptions::default());
        assert!(stats.converged());
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn jacobi_preconditioned_cg_converges() {
        let n = 150;
        let a = laplace_1d(n);
        let b = vec![1.0; n];
        let p = JacobiPrecond::new(&a);
        let mut x = vec![0.0; n];
        let stats = conjugate_gradient(&a, &p, &b, &mut x, &SolverOptions { tolerance: 1e-10, max_iterations: 1000, ..Default::default() });
        assert!(stats.converged());
        let mut ax = vec![0.0; n];
        a.spmv(&x, &mut ax);
        let res: f64 = ax.iter().zip(&b).map(|(p, q)| (p - q).powi(2)).sum::<f64>().sqrt();
        assert!(res < 1e-7 * (n as f64).sqrt());
    }

    #[test]
    fn cg_respects_budget() {
        let n = 500;
        let a = laplace_1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let stats = conjugate_gradient(&a, &IdentityPrecond, &b, &mut x, &SolverOptions { tolerance: 1e-16, max_iterations: 3, ..Default::default() });
        assert_eq!(stats.reason, StopReason::MaxIterations);
    }

    #[test]
    fn every_exit_reports_the_true_residual() {
        let n = 200;
        let a = laplace_1d(n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        for (max_iterations, tolerance) in [(7, 1e-14), (5000, 1e-9)] {
            let mut x = vec![0.0; n];
            let opts = SolverOptions { tolerance, max_iterations, record_history: true, ..Default::default() };
            let s = conjugate_gradient(&a, &IdentityPrecond, &b, &mut x, &opts);
            let actual = true_rel(&a, &b, &x);
            assert!((actual - s.relative_residual).abs() <= 1e-12 * actual.max(1e-300));
            if !s.converged() {
                assert_eq!(s.history.last().copied(), Some(s.relative_residual));
            } else {
                assert!(s.relative_residual <= tolerance);
            }
        }
    }

    #[test]
    fn zero_time_budget_stops_with_the_time_budget_reason() {
        let n = 300;
        let a = laplace_1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let opts = SolverOptions { tolerance: 1e-12, time_budget: Some(Duration::ZERO), ..Default::default() };
        let s = conjugate_gradient(&a, &IdentityPrecond, &b, &mut x, &opts);
        assert_eq!(s.reason, StopReason::TimeBudget);
        assert_eq!(s.iterations, 0);
    }

    #[test]
    fn warm_workspace_is_reused_and_solves_identically() {
        let n = 120;
        let a = laplace_1d(n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.2).sin()).collect();
        let opts = SolverOptions { tolerance: 1e-10, ..Default::default() };
        let mut ws = KrylovWorkspace::default();
        let mut first = vec![0.0; n];
        super::conjugate_gradient(&a, &IdentityPrecond, &b, &mut first, &opts, &mut ws).unwrap();
        let before = (ws.r.as_ptr(), ws.w.as_ptr(), ws.zb.as_ptr(), ws.work_ax.as_ptr());
        let mut again = vec![0.0; n];
        super::conjugate_gradient(&a, &IdentityPrecond, &b, &mut again, &opts, &mut ws).unwrap();
        assert_eq!(before, (ws.r.as_ptr(), ws.w.as_ptr(), ws.zb.as_ptr(), ws.work_ax.as_ptr()));
        assert!(first.iter().zip(&again).all(|(p, q)| p.to_bits() == q.to_bits()));
        // CG never sizes the GMRES basis.
        assert_eq!(ws.bytes(), 5 * n * std::mem::size_of::<f64>());
    }
}
