//! Common solver interfaces and convergence reporting.

use crate::csr::CsrMatrix;

/// Anything that can apply `y = A x` — a plain CSR matrix, or the
/// distributed operator run across the simulated cluster.
pub trait LinearOperator: Sync {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;
    /// `y = A x`.
    fn apply(&self, x: &[f64], y: &mut [f64]);
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
///
/// History contract (when `record_history` is on): the first entry is the
/// initial relative residual, subsequent entries are per-iteration
/// recurrence estimates; on every **non-converged** exit (budget,
/// breakdown, time-out) the final entry is the true relative residual, so
/// `history.last()` agrees with `relative_residual`. The history is never
/// empty when recording is on — a zero-RHS solve records a single `0.0`.
#[derive(Debug, Clone)]
pub struct SolveStats {
    /// Why the solver stopped.
    pub reason: StopReason,
    /// Total Krylov iterations (across restarts for GMRES).
    pub iterations: usize,
    /// Final *relative* residual `‖b − A x‖ / ‖b‖` as estimated by the
    /// solver recurrence.
    pub relative_residual: f64,
    /// Residual history (per the contract above), for convergence plots.
    pub history: Vec<f64>,
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
    /// Record per-iteration residuals in `SolveStats::history`.
    pub record_history: bool,
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
            record_history: false,
            time_budget: None,
        }
    }
}

impl brainshift_persist::Persist for StopReason {
    fn encode(
        &self,
        enc: &mut brainshift_persist::Encoder,
    ) -> Result<(), brainshift_persist::PersistError> {
        enc.put_u8(match self {
            StopReason::Converged => 0,
            StopReason::MaxIterations => 1,
            StopReason::Breakdown => 2,
            StopReason::TimeBudget => 3,
        });
        Ok(())
    }
    fn decode(
        dec: &mut brainshift_persist::Decoder<'_>,
    ) -> Result<Self, brainshift_persist::PersistError> {
        match dec.get_u8()? {
            0 => Ok(StopReason::Converged),
            1 => Ok(StopReason::MaxIterations),
            2 => Ok(StopReason::Breakdown),
            3 => Ok(StopReason::TimeBudget),
            t => Err(brainshift_persist::PersistError::InvalidData {
                reason: format!("invalid StopReason tag {t}"),
            }),
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

    #[test]
    fn retired_stop_reason_tag_is_invalid_data() {
        // Tag 4 was the mixed-precision `Stalled` reason; it must not
        // decode to anything now that the rung is gone.
        let r = brainshift_persist::from_bytes::<StopReason>(&[4]);
        assert!(
            matches!(r, Err(brainshift_persist::PersistError::InvalidData { .. })),
            "{r:?}"
        );
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
