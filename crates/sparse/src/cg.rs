//! Preconditioned conjugate gradients.
//!
//! The FEM stiffness matrix is symmetric positive definite after Dirichlet
//! substitution, so CG is a natural baseline against the paper's GMRES
//! choice; the ablation benchmark compares them.

use crate::dense::{axpy, dot, norm2};
use crate::error::SparseError;
use crate::precond::Preconditioner;
use crate::solver::{LinearOperator, SolveStats, SolverOptions, StopReason};

/// Solve `A x = b` (A symmetric positive definite) with preconditioned CG.
/// `x` holds the initial guess on entry and the solution on exit.
///
/// Mismatched `b`/`x` lengths are a typed
/// [`SparseError::DimensionMismatch`], not a panic.
pub fn conjugate_gradient(
    a: &dyn LinearOperator,
    precond: &dyn Preconditioner,
    b: &[f64],
    x: &mut [f64],
    opts: &SolverOptions,
) -> Result<SolveStats, SparseError> {
    let n = a.dim();
    if b.len() != n {
        return Err(SparseError::DimensionMismatch { what: "rhs", expected: n, got: b.len() });
    }
    if x.len() != n {
        return Err(SparseError::DimensionMismatch { what: "x0", expected: n, got: x.len() });
    }

    let b_norm = norm2(b);
    let mut history = Vec::new();
    if b_norm == 0.0 {
        x.iter_mut().for_each(|v| *v = 0.0);
        return Ok(SolveStats { reason: StopReason::Converged, iterations: 0, relative_residual: 0.0, history, restarts: 0 });
    }

    let mut r = vec![0.0; n];
    a.apply(x, &mut r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let mut z = vec![0.0; n];
    precond.apply(&r, &mut z);
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut ap = vec![0.0; n];

    let mut rel = norm2(&r) / b_norm;
    if opts.record_history {
        history.push(rel);
    }
    if rel <= opts.tolerance {
        return Ok(SolveStats { reason: StopReason::Converged, iterations: 0, relative_residual: rel, history, restarts: 0 });
    }

    for it in 1..=opts.max_iterations {
        a.apply(&p, &mut ap);
        let pap = dot(&p, &ap);
        if pap.abs() < 1e-300 {
            return Ok(SolveStats { reason: StopReason::Breakdown, iterations: it, relative_residual: rel, history, restarts: 0 });
        }
        let alpha = rz / pap;
        axpy(alpha, &p, x);
        axpy(-alpha, &ap, &mut r);
        rel = norm2(&r) / b_norm;
        if opts.record_history {
            history.push(rel);
        }
        if rel <= opts.tolerance {
            return Ok(SolveStats { reason: StopReason::Converged, iterations: it, relative_residual: rel, history, restarts: 0 });
        }
        precond.apply(&r, &mut z);
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    Ok(SolveStats { reason: StopReason::MaxIterations, iterations: opts.max_iterations, relative_residual: rel, history, restarts: 0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{CsrMatrix, TripletBuilder};
    use crate::precond::{IdentityPrecond, JacobiPrecond};

    // Shadow the Result-returning entry point: test shapes always agree.
    fn conjugate_gradient(
        a: &dyn LinearOperator,
        p: &dyn Preconditioner,
        b: &[f64],
        x: &mut [f64],
        o: &SolverOptions,
    ) -> SolveStats {
        super::conjugate_gradient(a, p, b, x, o).expect("test shapes agree")
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
                &SolverOptions::default()
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
}
