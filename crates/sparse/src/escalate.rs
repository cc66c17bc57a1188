//! Solver escalation under a real-time budget.
//!
//! The paper's solve runs *during* surgery: a solver that silently fails
//! to converge (or hangs past the ~10 s intraoperative window) is
//! clinically useless. This module implements an explicit escalation
//! ladder — the configured method first (preconditioned CG for the SPD
//! system, or the paper's GMRES with the configured restart), then GMRES
//! with the configured and larger restart(s), then BiCGStab — where every
//! rung is bounded by the caller's iteration budget and by the remaining
//! share of an overall wall-clock budget. The caller decides what to do
//! when the ladder is exhausted (the intraoperative pipeline degrades to
//! the previous scan's field).

use crate::bicgstab::bicgstab;
use crate::cg::conjugate_gradient;
use crate::error::SparseError;
use crate::gmres::{gmres_with_workspace, KrylovWorkspace};
use crate::precond::Preconditioner;
use crate::solver::{KrylovKind, LinearOperator, SolveStats, SolverOptions, StopReason};
use std::time::{Duration, Instant};

/// What to try, in order, after the primary attempt fails to converge.
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
        // GMRES(120) → BiCGStab after the primary rung(s), no wall-clock
        // bound unless the caller sets one.
        EscalationPolicy { larger_restarts: vec![120], bicgstab_fallback: true, time_budget: None }
    }
}

impl EscalationPolicy {
    /// No escalation: the primary attempt's outcome is final.
    pub fn none() -> Self {
        EscalationPolicy { larger_restarts: Vec::new(), bicgstab_fallback: false, time_budget: None }
    }

    /// Whether any rung follows the primary attempt.
    fn escalates(&self) -> bool {
        !self.larger_restarts.is_empty() || self.bicgstab_fallback
    }
}

/// Per-rung trace of one escalated solve: which solver ran, how hard it
/// worked, and how long it took. `seconds` is wall-clock (rung timing is
/// a real-time measurement even when the rest of the system runs on a
/// logical clock).
#[derive(Debug, Clone)]
pub struct RungTrace {
    /// `"cg"`, `"gmres"` or `"bicgstab"`.
    pub solver: &'static str,
    /// GMRES restart length used (0 for CG and BiCGStab).
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

/// One rung of the ladder.
#[derive(Debug, Clone, Copy)]
enum Rung {
    Cg,
    Gmres(usize),
    BiCgStab,
}

/// Solve `A x = b`, escalating through the ladder until an attempt
/// converges, the ladder is exhausted, or the wall-clock budget expires.
/// `x` holds the initial guess on entry and the best iterate on exit;
/// each rung starts from the previous rung's partial progress.
///
/// The ladder is `krylov`'s rung — PCG, or GMRES(`opts.restart`) — then,
/// if `policy` escalates at all, GMRES(`opts.restart`) after a CG rung,
/// GMRES at each of `policy.larger_restarts`, and BiCGStab when
/// `policy.bicgstab_fallback` is set. The GMRES basis in `ws` is sized by
/// the first GMRES rung that runs.
///
/// The ladder never returns a worse residual than its best rung: CG
/// minimizes the error in the energy norm, not the residual, and the
/// BiCGStab fallback is not monotone either — its recurrence can end
/// farther from the solution than it started. The iterate/stats pair of
/// the best rung is therefore snapshotted and restored whenever a later
/// rung regresses.
#[allow(clippy::too_many_arguments)]
pub fn solve_escalated(
    a: &dyn LinearOperator,
    precond: &dyn Preconditioner,
    b: &[f64],
    x: &mut [f64],
    krylov: KrylovKind,
    opts: &SolverOptions,
    policy: &EscalationPolicy,
    ws: &mut KrylovWorkspace,
) -> Result<EscalationOutcome, SparseError> {
    let start = Instant::now();
    let remaining = || policy.time_budget.map(|total| total.saturating_sub(start.elapsed()));
    // The tighter of the per-attempt budget and the ladder's remaining
    // overall budget wins.
    let budgeted = |base: SolverOptions| SolverOptions {
        time_budget: match (base.time_budget, remaining()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        },
        ..base
    };

    let primary = match krylov {
        KrylovKind::ConjugateGradient => Rung::Cg,
        KrylovKind::Gmres => Rung::Gmres(opts.restart),
    };
    let cg_handoff =
        (krylov == KrylovKind::ConjugateGradient && policy.escalates()).then_some(Rung::Gmres(opts.restart));
    let ladder = std::iter::once(primary)
        .chain(cg_handoff)
        .chain(policy.larger_restarts.iter().map(|&m| Rung::Gmres(m)))
        .chain(policy.bicgstab_fallback.then_some(Rung::BiCgStab));

    let mut rung_reasons = Vec::new();
    let mut rungs = Vec::new();
    // Best-rung snapshot: iterate + stats of the lowest residual so far.
    let mut best: Option<(Vec<f64>, SolveStats)> = None;
    for rung in ladder {
        let rung_start = Instant::now();
        let (solver, restart, stats) = match rung {
            Rung::Cg => ("cg", 0, conjugate_gradient(a, precond, b, x, &budgeted(opts.clone()), ws)?),
            Rung::Gmres(m) => {
                let o = budgeted(SolverOptions { restart: m, ..opts.clone() });
                ("gmres", m.max(1), gmres_with_workspace(a, precond, b, x, &o, ws)?)
            }
            Rung::BiCgStab => ("bicgstab", 0, bicgstab(a, precond, b, x, &budgeted(opts.clone()))?),
        };
        rung_reasons.push(stats.reason);
        rungs.push(RungTrace {
            solver,
            restart,
            reason: stats.reason,
            iterations: stats.iterations,
            restarts: stats.restarts,
            relative_residual: stats.relative_residual,
            seconds: rung_start.elapsed().as_secs_f64(),
        });
        let attempts = rungs.len();
        if stats.converged() {
            return Ok(EscalationOutcome { stats, attempts, escalated: attempts > 1, rung_reasons, rungs });
        }
        let out_of_time = stats.reason == StopReason::TimeBudget || remaining().is_some_and(|r| r.is_zero());
        match &mut best {
            Some((best_x, best_stats)) => {
                if stats.relative_residual <= best_stats.relative_residual {
                    best_x.copy_from_slice(x);
                    *best_stats = stats;
                }
            }
            None => best = Some((x.to_vec(), stats)),
        }
        if out_of_time {
            break;
        }
    }
    // No rung converged: hand back the best iterate seen, not the last.
    let (best_x, stats) = best.expect("the ladder always runs its primary rung");
    x.copy_from_slice(&best_x);
    let attempts = rungs.len();
    Ok(EscalationOutcome { stats, attempts, escalated: attempts > 1, rung_reasons, rungs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{CsrMatrix, TripletBuilder};
    use crate::precond::{IdentityPrecond, JacobiPrecond};

    // Shadow the Result-returning entry point with the paper's GMRES
    // ladder and a fresh workspace: test shapes always agree.
    fn solve_escalated(
        a: &dyn LinearOperator,
        precond: &dyn Preconditioner,
        b: &[f64],
        x: &mut [f64],
        opts: &SolverOptions,
        policy: &EscalationPolicy,
    ) -> EscalationOutcome {
        escalate_from(a, precond, b, x, KrylovKind::Gmres, opts, policy)
    }

    fn escalate_from(
        a: &dyn LinearOperator,
        precond: &dyn Preconditioner,
        b: &[f64],
        x: &mut [f64],
        krylov: KrylovKind,
        opts: &SolverOptions,
        policy: &EscalationPolicy,
    ) -> EscalationOutcome {
        let mut ws = KrylovWorkspace::default();
        super::solve_escalated(a, precond, b, x, krylov, opts, policy, &mut ws).expect("test shapes agree")
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
        let out = solve_escalated(
            &a,
            &IdentityPrecond,
            &b,
            &mut x,
            &SolverOptions { tolerance: 1e-8, ..Default::default() },
            &EscalationPolicy::default(),
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
        let opts = SolverOptions { tolerance: 1e-10, restart: 2, max_iterations: 150, ..Default::default() };
        let policy = EscalationPolicy {
            larger_restarts: vec![150],
            bicgstab_fallback: false,
            ..Default::default()
        };
        let out = solve_escalated(&a, &IdentityPrecond, &b, &mut x, &opts, &policy);
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
        let opts = SolverOptions { tolerance: 1e-14, restart: 2, max_iterations: 2, ..Default::default() };
        let policy =
            EscalationPolicy { larger_restarts: vec![3], ..Default::default() };
        let out = solve_escalated(&a, &IdentityPrecond, &b, &mut x, &opts, &policy);
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
        let opts = SolverOptions { tolerance: 1e-14, restart: 2, max_iterations: 3, ..Default::default() };
        let policy =
            EscalationPolicy { larger_restarts: vec![3], ..Default::default() };
        let out = solve_escalated(&a, &IdentityPrecond, &b, &mut x, &opts, &policy);
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
        let opts = SolverOptions { tolerance: 1e-14, restart: 2, max_iterations: 2, ..Default::default() };
        let policy =
            EscalationPolicy { larger_restarts: vec![3], ..Default::default() };
        let out = solve_escalated(&a, &IdentityPrecond, &b, &mut x, &opts, &policy);
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
        let opts = SolverOptions { tolerance: 1e-14, ..Default::default() };
        let policy = EscalationPolicy {
            larger_restarts: vec![100, 200],
            time_budget: Some(Duration::ZERO),
            ..Default::default()
        };
        let out = solve_escalated(&a, &IdentityPrecond, &b, &mut x, &opts, &policy);
        assert_eq!(out.stats.reason, StopReason::TimeBudget);
        assert_eq!(out.attempts, 1, "no further rungs after the budget expired");
    }

    fn residual(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
        let mut ax = vec![0.0; b.len()];
        a.spmv(x, &mut ax);
        let r: f64 = ax.iter().zip(b).map(|(p, q)| (p - q).powi(2)).sum::<f64>().sqrt();
        r / b.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    #[test]
    fn cg_leads_and_converges_on_its_own_rung() {
        let n = 60;
        let a = laplace_1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let opts = SolverOptions { tolerance: 1e-8, ..Default::default() };
        let out = escalate_from(&a, &JacobiPrecond::new(&a), &b, &mut x, KrylovKind::ConjugateGradient, &opts, &EscalationPolicy::default());
        assert!(out.stats.converged());
        assert_eq!(out.attempts, 1);
        assert_eq!(out.rungs.iter().map(|r| (r.solver, r.restart)).collect::<Vec<_>>(), vec![("cg", 0)]);
    }

    #[test]
    fn a_starved_cg_rung_hands_its_iterate_to_gmres() {
        let n = 120;
        let a = laplace_1d(n);
        let b = vec![1.0; n];
        let opts = SolverOptions { tolerance: 1e-14, restart: 2, max_iterations: 4, ..Default::default() };
        let mut x_cg = vec![0.0; n];
        let alone = escalate_from(&a, &IdentityPrecond, &b, &mut x_cg, KrylovKind::ConjugateGradient, &opts, &EscalationPolicy::none());
        assert_eq!(alone.attempts, 1, "EscalationPolicy::none() keeps CG final");
        let policy = EscalationPolicy { larger_restarts: vec![3], ..Default::default() };
        let mut x = vec![0.0; n];
        let out = escalate_from(&a, &IdentityPrecond, &b, &mut x, KrylovKind::ConjugateGradient, &opts, &policy);
        assert_eq!(
            out.rungs.iter().map(|r| (r.solver, r.restart)).collect::<Vec<_>>(),
            vec![("cg", 0), ("gmres", 2), ("gmres", 3), ("bicgstab", 0)]
        );
        assert!(out.escalated && out.attempts == 4);
        assert_eq!(out.rungs[0].iterations, alone.stats.iterations);
        assert!(out.stats.relative_residual <= alone.stats.relative_residual);
        assert!(residual(&a, &b, &x) <= residual(&a, &b, &x_cg) * (1.0 + 1e-12));
    }

    #[test]
    fn zero_budget_stops_the_cg_rung_and_the_ladder() {
        let n = 200;
        let a = laplace_1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let opts = SolverOptions { tolerance: 1e-14, ..Default::default() };
        let policy = EscalationPolicy { time_budget: Some(Duration::ZERO), ..Default::default() };
        let out = escalate_from(&a, &IdentityPrecond, &b, &mut x, KrylovKind::ConjugateGradient, &opts, &policy);
        assert_eq!(out.stats.reason, StopReason::TimeBudget);
        assert_eq!(out.attempts, 1);
    }

    #[test]
    fn a_cg_solve_never_sizes_the_gmres_basis() {
        let n = 100;
        let a = laplace_1d(n);
        let mut ws = KrylovWorkspace::default();
        let mut x = vec![0.0; n];
        let opts = SolverOptions { tolerance: 1e-8, ..Default::default() };
        super::solve_escalated(&a, &IdentityPrecond, &[1.0; 100], &mut x, KrylovKind::ConjugateGradient, &opts, &EscalationPolicy::default(), &mut ws)
            .unwrap();
        assert_eq!(ws.bytes(), 5 * n * 8);
        let mut x = vec![0.0; n];
        super::solve_escalated(&a, &IdentityPrecond, &[1.0; 100], &mut x, KrylovKind::Gmres, &opts, &EscalationPolicy::default(), &mut ws)
            .unwrap();
        assert!(ws.bytes() >= (opts.restart + 1) * n * 8);
    }
}
