//! Common solver interfaces and convergence reporting.

use crate::bsr::BsrMatrix;
use crate::csr::CsrMatrix;

/// Anything that can apply `y = A x` and complete a reduction over the
/// vectors it acts on — a plain CSR matrix, or one rank's rows of a
/// distributed system (`brainshift_cluster::distributed_solve`).
///
/// [`crate::conjugate_gradient`] and [`crate::gmres_with_workspace`]
/// pass every dot product and norm through [`LinearOperator::sum`], so
/// the same loops run serially and on each rank's slice of the vectors.
/// There is no `Sync` bound: the loops call the operator from one
/// thread, and a rank's operator keeps its communicator endpoint in a
/// `RefCell`, which is not `Sync`.
pub trait LinearOperator {
    /// Dimension of the (square) operator: the length of the vectors it
    /// acts on, which for a rank's operator is that rank's rows.
    fn dim(&self) -> usize;
    /// `y = A x`.
    fn apply(&self, x: &[f64], y: &mut [f64]);
    /// Complete a reduction whose `local` part was computed on this
    /// operator's vectors: the identity for an operator that owns whole
    /// vectors, an allreduce across ranks for a distributed one. It must
    /// return identical bits on every rank, because every branch of the
    /// Krylov loops (convergence, breakdown, restart) reads its result.
    fn sum(&self, local: f64) -> f64 {
        local
    }
}

impl LinearOperator for CsrMatrix {
    fn dim(&self) -> usize {
        debug_assert_eq!(self.nrows(), self.ncols());
        self.nrows()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_parallel(x, y);
    }
}

impl LinearOperator for BsrMatrix {
    fn dim(&self) -> usize {
        debug_assert_eq!(self.nrows(), self.ncols());
        self.nrows()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_parallel(x, y);
    }
}

/// Which Krylov method solves the system: one call of
/// [`crate::conjugate_gradient`] or [`crate::gmres_with_workspace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KrylovKind {
    /// Restarted GMRES: the paper's choice (PETSc's default Krylov
    /// method), for any nonsingular system.
    Gmres,
    /// Preconditioned conjugate gradients: for the symmetric positive
    /// definite `K_ff` of linear elasticity, with an SPD preconditioner.
    ConjugateGradient,
}

impl std::fmt::Display for KrylovKind {
    /// The short name reports print: `"gmres"` or `"cg"`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            KrylovKind::Gmres => "gmres",
            KrylovKind::ConjugateGradient => "cg",
        })
    }
}

/// Why a Krylov solve stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Relative residual dropped below tolerance.
    Converged,
    /// Iteration budget exhausted.
    MaxIterations,
    /// A breakdown (e.g. zero inner product) occurred; the best iterate so
    /// far was returned.
    Breakdown,
    /// The wall-clock budget (`SolverOptions::time_budget`) expired; the
    /// best iterate so far was returned. This is what bounds a single
    /// solve inside the intraoperative real-time window.
    TimeBudget,
}

/// Convergence statistics of one linear solve.
#[derive(Debug, Clone)]
pub struct SolveStats {
    /// Why the solver stopped.
    pub reason: StopReason,
    /// Total Krylov iterations (across restarts for GMRES).
    pub iterations: usize,
    /// Final *relative* residual `‖b − A x‖ / ‖b‖` of the returned
    /// iterate: both solvers compute it from `x`, not from their
    /// recurrence, on every exit.
    pub relative_residual: f64,
    /// Completed restart cycles beyond the first (GMRES): a solve that
    /// finished inside its first Krylov cycle reports `0`. Always `0`
    /// for CG, which does not restart.
    pub restarts: usize,
}

impl SolveStats {
    /// True when the solve reached its tolerance.
    pub fn converged(&self) -> bool {
        self.reason == StopReason::Converged
    }
}

/// Parameters shared by the Krylov solvers.
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Relative residual tolerance.
    pub tolerance: f64,
    /// Maximum total iterations.
    pub max_iterations: usize,
    /// GMRES restart length (ignored by CG).
    pub restart: usize,
    /// Wall-clock budget for one solve; `None` means unbounded, and so
    /// does a budget too large for the clock to represent. When the
    /// budget expires mid-solve, the solver returns its best iterate with
    /// [`StopReason::TimeBudget`].
    pub time_budget: Option<std::time::Duration>,
}

impl Default for SolverOptions {
    fn default() -> Self {
        // PETSc-like defaults: rtol 1e-5, GMRES(30).
        SolverOptions {
            tolerance: 1e-5,
            max_iterations: 2000,
            restart: 30,
            time_budget: None,
        }
    }
}

/// Deadline derived from a [`SolverOptions::time_budget`], checked inside
/// the Krylov loops.
///
/// Deliberately stays on raw `Instant` rather than the obs clock: the
/// check sits in the hot Krylov loop and enforces a *real-time* surgical
/// budget — it must fire on wall time even when the surrounding system
/// is being driven by a logical clock.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Deadline(Option<std::time::Instant>);

impl Deadline {
    /// A budget past the clock's range (`Duration::MAX`, say) is no
    /// deadline at all rather than an overflow panic.
    pub(crate) fn from_budget(budget: Option<std::time::Duration>) -> Self {
        Deadline(budget.and_then(|d| std::time::Instant::now().checked_add(d)))
    }
    pub(crate) fn expired(&self) -> bool {
        self.0.is_some_and(|t| std::time::Instant::now() >= t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::TripletBuilder;

    #[test]
    fn csr_is_linear_operator() {
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 0, 2.0);
        b.add(1, 1, 3.0);
        let m = b.build();
        assert_eq!(LinearOperator::dim(&m), 2);
        let mut y = vec![0.0; 2];
        m.apply(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![2.0, 3.0]);
    }

    /// A CSR matrix that counts its matvecs and reductions: on a rank's
    /// operator these are the ghost exchanges and the allreduces.
    struct Counting<'a> {
        a: &'a CsrMatrix,
        applies: std::cell::Cell<usize>,
        sums: std::cell::Cell<usize>,
    }

    impl LinearOperator for Counting<'_> {
        fn dim(&self) -> usize {
            self.a.nrows()
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            self.applies.set(self.applies.get() + 1);
            self.a.apply(x, y);
        }
        fn sum(&self, local: f64) -> f64 {
            self.sums.set(self.sums.get() + 1);
            local
        }
    }

    #[test]
    fn reductions_per_iteration_are_pinned() {
        use crate::precond::JacobiPrecond;
        let n = 200;
        let mut t = TripletBuilder::new(n, n);
        for i in 0..n {
            t.add(i, i, 2.0);
            if i > 0 {
                t.add(i, i - 1, -1.0);
                t.add(i - 1, i, -1.0);
            }
        }
        let a = t.build();
        let pc = JacobiPrecond::new(&a);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        // (matvecs, reductions) of a solve stopped after `k` iterations;
        // the tolerance is out of reach and GMRES never restarts.
        let counts = |kind: KrylovKind, k: usize| {
            let op = Counting { a: &a, applies: Default::default(), sums: Default::default() };
            let opts = SolverOptions { tolerance: 1e-300, max_iterations: k, restart: 50, ..Default::default() };
            let (mut x, mut ws) = (vec![0.0; n], crate::gmres::KrylovWorkspace::default());
            let stats = match kind {
                KrylovKind::ConjugateGradient => crate::cg::conjugate_gradient(&op, &pc, &b, &mut x, &opts, &mut ws),
                KrylovKind::Gmres => crate::gmres::gmres_with_workspace(&op, &pc, &b, &mut x, &opts, &mut ws),
            }
            .unwrap();
            assert_eq!((stats.reason, stats.iterations), (StopReason::MaxIterations, k));
            (op.applies.get(), op.sums.get())
        };
        // From the second iteration on: GMRES's first also opens its cycle.
        for k in 1..12 {
            let (a0, s0) = counts(KrylovKind::ConjugateGradient, k);
            let (a1, s1) = counts(KrylovKind::ConjugateGradient, k + 1);
            assert_eq!((a1 - a0, s1 - s0), (1, 3), "CG iteration {k}");
            // GMRES step j = k: one matvec, then j + 2 reductions (the
            // first coefficient, j fused projections, ‖w‖²).
            let (a0, s0) = counts(KrylovKind::Gmres, k);
            let (a1, s1) = counts(KrylovKind::Gmres, k + 1);
            assert_eq!((a1 - a0, s1 - s0), (1, k + 2), "GMRES step {k}");
        }
    }

    #[test]
    fn an_unrepresentable_time_budget_is_unbounded() {
        use crate::precond::IdentityPrecond;
        let n = 50;
        let mut t = TripletBuilder::new(n, n);
        for i in 0..n {
            t.add(i, i, 2.0);
            if i > 0 {
                t.add(i, i - 1, -1.0);
                t.add(i - 1, i, -1.0);
            }
        }
        let a = t.build();
        let b = vec![1.0; n];
        let opts = SolverOptions { time_budget: Some(std::time::Duration::MAX), ..Default::default() };
        let mut ws = crate::gmres::KrylovWorkspace::default();
        let mut x = vec![0.0; n];
        let cg = crate::cg::conjugate_gradient(&a, &IdentityPrecond, &b, &mut x, &opts, &mut ws).unwrap();
        let mut x = vec![0.0; n];
        let gm = crate::gmres::gmres_with_workspace(&a, &IdentityPrecond, &b, &mut x, &opts, &mut ws).unwrap();
        assert!(cg.converged() && gm.converged(), "{cg:?} {gm:?}");
    }

    #[test]
    fn default_options_sane() {
        let o = SolverOptions::default();
        assert!(o.tolerance > 0.0 && o.tolerance < 1.0);
        assert!(o.restart >= 1);
    }
}
