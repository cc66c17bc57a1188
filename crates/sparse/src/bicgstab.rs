//! BiCGStab.
//!
//! The stabilized bi-conjugate gradient method: the short-recurrence
//! alternative to GMRES for nonsymmetric systems (constant memory instead
//! of a growing Krylov basis, two matvecs per iteration instead of one).
//! Included for the solver ablation — PETSc offers it under the same flag
//! family the paper's configuration came from.

use crate::dense::{axpy, dot, norm2};
use crate::error::SparseError;
use crate::precond::Preconditioner;
use crate::solver::{Deadline, LinearOperator, SolveStats, SolverOptions, StopReason};

/// Solve `A x = b` with right-preconditioned BiCGStab. `x` holds the
/// initial guess on entry and the solution on exit. Convergence is the
/// true relative residual `‖b − A x‖/‖b‖`.
///
/// Mismatched `b`/`x` lengths are a typed
/// [`SparseError::DimensionMismatch`], not a panic.
pub fn bicgstab(
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
    let deadline = Deadline::from_budget(opts.time_budget);
    let b_norm = norm2(b);
    let mut history = Vec::new();
    if b_norm == 0.0 {
        x.iter_mut().for_each(|v| *v = 0.0);
        if opts.record_history {
            history.push(0.0);
        }
        return Ok(SolveStats { reason: StopReason::Converged, iterations: 0, relative_residual: 0.0, history, restarts: 0 });
    }

    let mut r = vec![0.0; n];
    a.apply(x, &mut r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let r0 = r.clone(); // shadow residual
    let mut rel = norm2(&r) / b_norm;
    if opts.record_history {
        history.push(rel);
    }
    if rel <= opts.tolerance {
        return Ok(SolveStats { reason: StopReason::Converged, iterations: 0, relative_residual: rel, history, restarts: 0 });
    }

    let mut rho_prev = 1.0f64;
    let mut alpha = 1.0f64;
    let mut omega = 1.0f64;
    let mut p = vec![0.0; n];
    let mut v = vec![0.0; n];
    let mut phat = vec![0.0; n];
    let mut shat = vec![0.0; n];
    let mut t = vec![0.0; n];

    for it in 1..=opts.max_iterations {
        if deadline.expired() {
            if opts.record_history {
                history.push(rel);
            }
            return Ok(SolveStats {
                reason: StopReason::TimeBudget,
                iterations: it - 1,
                relative_residual: rel,
                history,
                restarts: 0,
            });
        }
        let rho = dot(&r0, &r);
        if rho.abs() < 1e-300 {
            return Ok(SolveStats { reason: StopReason::Breakdown, iterations: it, relative_residual: rel, history, restarts: 0 });
        }
        if it == 1 {
            p.copy_from_slice(&r);
        } else {
            let beta = (rho / rho_prev) * (alpha / omega);
            for i in 0..n {
                p[i] = r[i] + beta * (p[i] - omega * v[i]);
            }
        }
        precond.apply(&p, &mut phat);
        a.apply(&phat, &mut v);
        let r0v = dot(&r0, &v);
        if r0v.abs() < 1e-300 {
            return Ok(SolveStats { reason: StopReason::Breakdown, iterations: it, relative_residual: rel, history, restarts: 0 });
        }
        alpha = rho / r0v;
        // s = r − α v
        let mut s = r.clone();
        axpy(-alpha, &v, &mut s);
        let s_norm = norm2(&s);
        if s_norm / b_norm <= opts.tolerance {
            axpy(alpha, &phat, x);
            rel = s_norm / b_norm;
            if opts.record_history {
                history.push(rel);
            }
            return Ok(SolveStats { reason: StopReason::Converged, iterations: it, relative_residual: rel, history, restarts: 0 });
        }
        precond.apply(&s, &mut shat);
        a.apply(&shat, &mut t);
        let tt = dot(&t, &t);
        if tt.abs() < 1e-300 {
            return Ok(SolveStats { reason: StopReason::Breakdown, iterations: it, relative_residual: rel, history, restarts: 0 });
        }
        omega = dot(&t, &s) / tt;
        if omega.abs() < 1e-300 {
            return Ok(SolveStats { reason: StopReason::Breakdown, iterations: it, relative_residual: rel, history, restarts: 0 });
        }
        axpy(alpha, &phat, x);
        axpy(omega, &shat, x);
        r.copy_from_slice(&s);
        axpy(-omega, &t, &mut r);
        rel = norm2(&r) / b_norm;
        if opts.record_history {
            history.push(rel);
        }
        if rel <= opts.tolerance {
            return Ok(SolveStats { reason: StopReason::Converged, iterations: it, relative_residual: rel, history, restarts: 0 });
        }
        rho_prev = rho;
    }
    Ok(SolveStats {
        reason: StopReason::MaxIterations,
        iterations: opts.max_iterations,
        relative_residual: rel,
        history,
        restarts: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{CsrMatrix, TripletBuilder};
    use crate::precond::{Ic0, IdentityPrecond, JacobiPrecond};
    use rand::{Rng, SeedableRng};

    // Shadow the Result-returning entry point: test shapes always agree.
    fn bicgstab(
        a: &dyn LinearOperator,
        p: &dyn Preconditioner,
        b: &[f64],
        x: &mut [f64],
        o: &SolverOptions,
    ) -> SolveStats {
        super::bicgstab(a, p, b, x, o).expect("test shapes agree")
    }

    #[test]
    fn dimension_mismatch_is_typed() {
        let a = laplace_1d(6);
        let mut x = vec![0.0; 6];
        assert!(matches!(
            super::bicgstab(&a, &IdentityPrecond, &[1.0; 4], &mut x, &SolverOptions::default()),
            Err(SparseError::DimensionMismatch { what: "rhs", expected: 6, got: 4 })
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

    fn check(a: &CsrMatrix, b: &[f64], x: &[f64], tol: f64) {
        let mut ax = vec![0.0; b.len()];
        a.spmv(x, &mut ax);
        let res: f64 = ax.iter().zip(b).map(|(p, q)| (p - q).powi(2)).sum::<f64>().sqrt();
        let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(res / bn.max(1e-300) < tol, "true residual {}", res / bn);
    }

    #[test]
    fn solves_spd_system() {
        let n = 120;
        let a = laplace_1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let s = bicgstab(&a, &IdentityPrecond, &b, &mut x, &SolverOptions { tolerance: 1e-10, ..Default::default() });
        assert!(s.converged(), "{s:?}");
        check(&a, &b, &x, 1e-8);
    }

    #[test]
    fn solves_nonsymmetric_system() {
        let n = 150;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut tb = TripletBuilder::new(n, n);
        for i in 0..n {
            let mut off = 0.0;
            for _ in 0..4 {
                let j = rng.gen_range(0..n);
                if j != i {
                    let v: f64 = rng.gen_range(-1.0..1.0);
                    tb.add(i, j, v);
                    off += v.abs();
                }
            }
            tb.add(i, i, off + 1.5);
        }
        let a = tb.build();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x_true, &mut b);
        let mut x = vec![0.0; n];
        let p = JacobiPrecond::new(&a);
        let s = bicgstab(&a, &p, &b, &mut x, &SolverOptions { tolerance: 1e-10, ..Default::default() });
        assert!(s.converged());
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-7);
        }
    }

    #[test]
    fn preconditioning_reduces_iterations() {
        let n = 300;
        let a = laplace_1d(n);
        let b = vec![1.0; n];
        let opts = SolverOptions { tolerance: 1e-8, max_iterations: 5000, ..Default::default() };
        let mut x1 = vec![0.0; n];
        let s_plain = bicgstab(&a, &IdentityPrecond, &b, &mut x1, &opts);
        let mut x2 = vec![0.0; n];
        let ic = Ic0::new(&a).unwrap();
        let s_ic = bicgstab(&a, &ic, &b, &mut x2, &opts);
        assert!(s_plain.converged() && s_ic.converged());
        assert!(s_ic.iterations < s_plain.iterations, "{} vs {}", s_ic.iterations, s_plain.iterations);
        check(&a, &b, &x2, 1e-6);
    }

    #[test]
    fn zero_rhs() {
        let a = laplace_1d(10);
        let mut x = vec![3.0; 10];
        let s = bicgstab(&a, &IdentityPrecond, &[0.0; 10], &mut x, &SolverOptions::default());
        assert!(s.converged());
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn time_budget_respected() {
        let a = laplace_1d(400);
        let b = vec![1.0; 400];
        let mut x = vec![0.0; 400];
        let s = bicgstab(
            &a,
            &IdentityPrecond,
            &b,
            &mut x,
            &SolverOptions {
                tolerance: 1e-15,
                time_budget: Some(std::time::Duration::ZERO),
                record_history: true,
                ..Default::default()
            },
        );
        assert_eq!(s.reason, StopReason::TimeBudget);
        assert_eq!(s.history.last().copied(), Some(s.relative_residual));
    }

    #[test]
    fn budget_respected() {
        let a = laplace_1d(400);
        let b = vec![1.0; 400];
        let mut x = vec![0.0; 400];
        let s = bicgstab(&a, &IdentityPrecond, &b, &mut x, &SolverOptions { tolerance: 1e-15, max_iterations: 3, ..Default::default() });
        assert_eq!(s.reason, StopReason::MaxIterations);
    }
}
