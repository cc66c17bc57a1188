//! Solver escalation under a real-time budget.
//!
//! The paper's solve runs *during* surgery: a solver that silently fails
//! to converge (or hangs past the ~10 s intraoperative window) is
//! clinically useless. This module implements an explicit escalation
//! ladder — GMRES with the configured restart → GMRES with larger
//! restart(s) → BiCGStab — where every rung is bounded by the caller's
//! iteration budget and by the remaining share of an overall wall-clock
//! budget. The caller decides what to do when the ladder is exhausted
//! (the intraoperative pipeline degrades to the previous scan's field).

use crate::bicgstab::bicgstab;
use crate::error::SparseError;
use crate::gmres::{gmres_with_workspace, KrylovWorkspace};
use crate::precond::Preconditioner;
use crate::solver::{LinearOperator, SolveStats, SolverOptions, StopReason};
use std::time::{Duration, Instant};

/// What to try, in order, after the primary GMRES configuration fails to
/// converge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EscalationPolicy {
    /// Restart lengths for follow-up GMRES attempts (each strictly after
    /// the primary attempt, typically larger — less restart stagnation
    /// at the price of memory and orthogonalization work).
    pub larger_restarts: Vec<usize>,
    /// Whether to fall back to BiCGStab as the last rung.
    pub bicgstab_fallback: bool,
    /// Overall wall-clock budget shared by *all* rungs; `None` means
    /// unbounded. Each attempt receives the remaining budget.
    pub time_budget: Option<Duration>,
}

impl Default for EscalationPolicy {
    fn default() -> Self {
        // GMRES(m) → GMRES(120) → BiCGStab, no wall-clock bound unless
        // the caller sets one.
        EscalationPolicy { larger_restarts: vec![120], bicgstab_fallback: true, time_budget: None }
    }
}

impl EscalationPolicy {
    /// No escalation: the primary attempt's outcome is final.
    pub fn none() -> Self {
        EscalationPolicy { larger_restarts: Vec::new(), bicgstab_fallback: false, time_budget: None }
    }
}

impl brainshift_persist::Persist for EscalationPolicy {
    fn encode(
        &self,
        enc: &mut brainshift_persist::Encoder,
    ) -> Result<(), brainshift_persist::PersistError> {
        self.larger_restarts.encode(enc)?;
        enc.put_bool(self.bicgstab_fallback);
        self.time_budget.encode(enc)
    }
    fn decode(
        dec: &mut brainshift_persist::Decoder<'_>,
    ) -> Result<Self, brainshift_persist::PersistError> {
        Ok(EscalationPolicy {
            larger_restarts: Vec::<usize>::decode(dec)?,
            bicgstab_fallback: dec.get_bool()?,
            time_budget: Option::<Duration>::decode(dec)?,
        })
    }
}

/// Per-rung trace of one escalated solve: which solver ran, how hard it
/// worked, and how long it took. `seconds` is wall-clock (rung timing is
/// a real-time measurement even when the rest of the system runs on a
/// logical clock).
#[derive(Debug, Clone)]
pub struct RungTrace {
    /// `"gmres"`, `"bicgstab"`, or `"cg"` (set by the FEM layer's CG path).
    pub solver: &'static str,
    /// GMRES restart length used (0 for BiCGStab).
    pub restart: usize,
    /// Why this rung stopped.
    pub reason: StopReason,
    /// Krylov iterations this rung performed.
    pub iterations: usize,
    /// Restart cycles beyond the first within this rung.
    pub restarts: usize,
    /// Relative residual when the rung stopped.
    pub relative_residual: f64,
    /// Wall-clock seconds this rung ran.
    pub seconds: f64,
}

/// Result of [`solve_escalated`]: the final stats plus how far up the
/// ladder the solve had to go.
#[derive(Debug, Clone)]
pub struct EscalationOutcome {
    /// Stats of the attempt whose iterate is in `x` — the *best* attempt
    /// by relative residual, not necessarily the last one to run.
    pub stats: SolveStats,
    /// Total attempts made (1 = primary attempt sufficed).
    pub attempts: usize,
    /// True when any rung beyond the primary attempt ran.
    pub escalated: bool,
    /// Why each rung stopped, in ladder order (`rung_reasons.len() ==
    /// attempts`). This is the observability record a serving layer logs:
    /// it distinguishes "ran out of iterations twice, then the wall-clock
    /// budget expired" from "breakdown on the fallback".
    pub rung_reasons: Vec<StopReason>,
    /// Full per-rung trace, parallel to `rung_reasons` (`rungs.len() ==
    /// attempts`): solver, restart length, iterations, and wall-clock
    /// seconds for each rung.
    pub rungs: Vec<RungTrace>,
}

/// Solve `A x = b`, escalating through the policy's ladder until an
/// attempt converges, the ladder is exhausted, or the wall-clock budget
/// expires. `x` holds the initial guess on entry and the best iterate on
/// exit; each rung starts from the previous rung's partial progress.
///
/// The ladder never returns a worse residual than its best rung: every
/// GMRES rung is monotone by construction (it warm-starts from the
/// incumbent iterate and minimizes the residual over the new Krylov
/// space), but the BiCGStab fallback is not — its recurrence can end
/// farther from the solution than it started. The iterate/stats pair of
/// the best rung is therefore snapshotted and restored whenever a later
/// rung regresses.
pub fn solve_escalated(
    a: &dyn LinearOperator,
    precond: &dyn Preconditioner,
    b: &[f64],
    x: &mut [f64],
    opts: &SolverOptions,
    policy: &EscalationPolicy,
    ws: &mut KrylovWorkspace,
) -> Result<EscalationOutcome, SparseError> {
    let start = Instant::now();
    let remaining = |start: Instant| -> Option<Duration> {
        policy.time_budget.map(|total| total.saturating_sub(start.elapsed()))
    };
    let budgeted = |base: &SolverOptions, start: Instant| -> SolverOptions {
        let mut o = base.clone();
        // The tighter of the per-attempt budget and the ladder's
        // remaining overall budget wins.
        o.time_budget = match (o.time_budget, remaining(start)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        o
    };

    let trace = |solver: &'static str, restart: usize, s: &SolveStats, since: Instant| RungTrace {
        solver,
        restart,
        reason: s.reason,
        iterations: s.iterations,
        restarts: s.restarts,
        relative_residual: s.relative_residual,
        seconds: since.elapsed().as_secs_f64(),
    };

    let mut attempts = 1usize;
    let mut rung_reasons = Vec::with_capacity(2 + policy.larger_restarts.len());
    let mut rungs = Vec::with_capacity(2 + policy.larger_restarts.len());
    let rung_start = Instant::now();
    let mut stats = gmres_with_workspace(a, precond, b, x, &budgeted(opts, start), ws)?;
    rung_reasons.push(stats.reason);
    rungs.push(trace("gmres", opts.restart.max(1), &stats, rung_start));
    if stats.converged() {
        return Ok(EscalationOutcome { stats, attempts, escalated: false, rung_reasons, rungs });
    }

    let out_of_time =
        |s: &SolveStats| s.reason == StopReason::TimeBudget || remaining(start).is_some_and(|r| r.is_zero());

    // Best-rung snapshot: iterate + stats of the lowest residual so far.
    let mut best_x = x.to_vec();
    let mut best_stats = stats.clone();

    for &restart in &policy.larger_restarts {
        if out_of_time(&stats) {
            return Ok(EscalationOutcome {
                stats: best_stats,
                attempts,
                escalated: attempts > 1,
                rung_reasons,
                rungs,
            });
        }
        attempts += 1;
        let rung = SolverOptions { restart, ..opts.clone() };
        let rung_start = Instant::now();
        stats = gmres_with_workspace(a, precond, b, x, &budgeted(&rung, start), ws)?;
        rung_reasons.push(stats.reason);
        rungs.push(trace("gmres", restart, &stats, rung_start));
        if stats.converged() {
            return Ok(EscalationOutcome { stats, attempts, escalated: true, rung_reasons, rungs });
        }
        if stats.relative_residual <= best_stats.relative_residual {
            best_x.copy_from_slice(x);
            best_stats = stats.clone();
        }
    }

    if policy.bicgstab_fallback && !out_of_time(&stats) {
        attempts += 1;
        let rung_start = Instant::now();
        stats = bicgstab(a, precond, b, x, &budgeted(opts, start))?;
        rung_reasons.push(stats.reason);
        rungs.push(trace("bicgstab", 0, &stats, rung_start));
        if stats.converged() {
            return Ok(EscalationOutcome { stats, attempts, escalated: true, rung_reasons, rungs });
        }
        if stats.relative_residual <= best_stats.relative_residual {
            best_x.copy_from_slice(x);
            best_stats = stats.clone();
        }
    }
    // No rung converged: hand back the best iterate seen, not the last.
    x.copy_from_slice(&best_x);
    let escalated = attempts > 1;
    Ok(EscalationOutcome { stats: best_stats, attempts, escalated, rung_reasons, rungs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{CsrMatrix, TripletBuilder};
    use crate::precond::IdentityPrecond;

    // Shadow the Result-returning entry point: test shapes always agree.
    #[allow(clippy::too_many_arguments)]
    fn solve_escalated(
        a: &dyn LinearOperator,
        precond: &dyn Preconditioner,
        b: &[f64],
        x: &mut [f64],
        opts: &SolverOptions,
        policy: &EscalationPolicy,
        ws: &mut KrylovWorkspace,
    ) -> EscalationOutcome {
        super::solve_escalated(a, precond, b, x, opts, policy, ws).expect("test shapes agree")
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
    fn easy_system_stays_on_first_rung() {
        let n = 60;
        let a = laplace_1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let mut ws = KrylovWorkspace::new(n, 30);
        let out = solve_escalated(
            &a,
            &IdentityPrecond,
            &b,
            &mut x,
            &SolverOptions { tolerance: 1e-8, ..Default::default() },
            &EscalationPolicy::default(),
            &mut ws,
        );
        assert!(out.stats.converged());
        assert_eq!(out.attempts, 1);
        assert!(!out.escalated);
        assert_eq!(out.rung_reasons, vec![StopReason::Converged]);
    }

    #[test]
    fn restart_stagnation_is_rescued_by_larger_restart() {
        // GMRES(2) stagnates on a 1-D Laplacian at tight tolerance within
        // a small iteration budget; the ladder's larger restart converges.
        let n = 120;
        let a = laplace_1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let mut ws = KrylovWorkspace::new(n, 2);
        let opts = SolverOptions { tolerance: 1e-10, restart: 2, max_iterations: 150, ..Default::default() };
        let policy = EscalationPolicy {
            larger_restarts: vec![150],
            bicgstab_fallback: false,
            ..Default::default()
        };
        let out = solve_escalated(&a, &IdentityPrecond, &b, &mut x, &opts, &policy, &mut ws);
        assert!(out.stats.converged(), "{:?}", out.stats);
        assert!(out.escalated);
        assert_eq!(out.attempts, 2);
        let mut ax = vec![0.0; n];
        a.spmv(&x, &mut ax);
        let res: f64 = ax.iter().zip(&b).map(|(p, q)| (p - q).powi(2)).sum::<f64>().sqrt();
        assert!(res / (n as f64).sqrt() < 1e-8);
    }

    #[test]
    fn bicgstab_is_the_last_rung() {
        // Starve every rung of iterations: the ladder must still walk
        // GMRES(m) → GMRES(3) → BiCGStab before giving up.
        let n = 120;
        let a = laplace_1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let mut ws = KrylovWorkspace::new(n, 2);
        let opts = SolverOptions { tolerance: 1e-14, restart: 2, max_iterations: 2, ..Default::default() };
        let policy =
            EscalationPolicy { larger_restarts: vec![3], ..Default::default() };
        let out = solve_escalated(&a, &IdentityPrecond, &b, &mut x, &opts, &policy, &mut ws);
        assert_eq!(out.attempts, 3);
        assert!(out.escalated);
        assert!(!out.stats.converged());
        // One stop reason per rung, none of them Converged.
        assert_eq!(out.rung_reasons.len(), 3);
        assert!(out.rung_reasons.iter().all(|r| *r != StopReason::Converged));
    }

    #[test]
    fn exhausted_ladder_reports_last_attempt() {
        let n = 200;
        let a = laplace_1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let mut ws = KrylovWorkspace::new(n, 2);
        let opts = SolverOptions { tolerance: 1e-14, restart: 2, max_iterations: 3, ..Default::default() };
        let policy =
            EscalationPolicy { larger_restarts: vec![3], ..Default::default() };
        let out = solve_escalated(&a, &IdentityPrecond, &b, &mut x, &opts, &policy, &mut ws);
        assert!(!out.stats.converged());
        assert_eq!(out.attempts, 3);
    }

    #[test]
    fn rung_traces_mirror_the_ladder() {
        // Same starved setup as `bicgstab_is_the_last_rung`: the trace
        // must show gmres(2) → gmres(3) → bicgstab with per-rung timing.
        let n = 120;
        let a = laplace_1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let mut ws = KrylovWorkspace::new(n, 2);
        let opts = SolverOptions { tolerance: 1e-14, restart: 2, max_iterations: 2, ..Default::default() };
        let policy =
            EscalationPolicy { larger_restarts: vec![3], ..Default::default() };
        let out = solve_escalated(&a, &IdentityPrecond, &b, &mut x, &opts, &policy, &mut ws);
        assert_eq!(out.rungs.len(), out.attempts);
        assert_eq!(
            out.rungs.iter().map(|r| (r.solver, r.restart)).collect::<Vec<_>>(),
            vec![("gmres", 2), ("gmres", 3), ("bicgstab", 0)]
        );
        for (r, reason) in out.rungs.iter().zip(&out.rung_reasons) {
            assert_eq!(r.reason, *reason);
            assert!(r.seconds >= 0.0 && r.seconds.is_finite());
            assert!(r.relative_residual.is_finite());
        }
    }

    #[test]
    fn zero_budget_short_circuits_the_ladder() {
        let n = 200;
        let a = laplace_1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let mut ws = KrylovWorkspace::new(n, 30);
        let opts = SolverOptions { tolerance: 1e-14, ..Default::default() };
        let policy = EscalationPolicy {
            larger_restarts: vec![100, 200],
            time_budget: Some(Duration::ZERO),
            ..Default::default()
        };
        let out = solve_escalated(&a, &IdentityPrecond, &b, &mut x, &opts, &policy, &mut ws);
        assert_eq!(out.stats.reason, StopReason::TimeBudget);
        assert_eq!(out.attempts, 1, "no further rungs after the budget expired");
    }
}
