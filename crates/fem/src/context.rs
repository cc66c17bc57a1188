//! Persistent solver context: assemble once, re-solve many.
//!
//! The paper's intraoperative loop solves the *same* elastic system once
//! per scan: the mesh, the material table, and the set of constrained
//! surface nodes are fixed for the whole surgery — only the prescribed
//! surface displacements change as the brain shifts. The original
//! pipeline nevertheless re-assembled the global stiffness matrix,
//! re-applied the Dirichlet substitution, and re-factored the
//! preconditioner on every scan.
//!
//! A [`SolverContext`] hoists all of that per-surgery work out of the
//! per-scan path. It caches:
//!
//! 1. the assembled stiffness matrix `K`, behind an [`Arc`] so that every
//!    context of one surgery can share the surgery's one assembly (a
//!    rebuild after a cache eviction is then reduction + factorization
//!    only — see [`SolverContext::with_matrix`]);
//! 2. the reduced free-free block `K_ff` and the boundary-coupling block
//!    `K_fc` (so each scan's load vector is one sparse product,
//!    `f = −K_fc·u_c`);
//! 3. the factored preconditioner for `K_ff` (block-Jacobi IC(0) by
//!    default);
//! 4. a [`KrylovWorkspace`] reused across solves (no per-scan vector
//!    allocation; the GMRES basis only if a solve ever escalates to it).
//!
//! Per scan, the remaining work is: gather boundary values → one
//! `K_fc` product → one escalated Krylov solve (preconditioned CG first,
//! by default) warm-started from the previous scan's displacement (brain
//! shift is progressive, so consecutive solutions are close).
//! [`ContextStats`] counts assemblies and factorizations so callers can
//! *assert* the assemble-once contract.
//!
//! This is the only implementation of "solve `K u = f` with Dirichlet
//! data" in the crate: the cold entry points
//! ([`crate::solver::solve_deformation`], [`crate::solver::solve_with_loads`])
//! build a context, solve once, and drop it.

use crate::assembly::assemble_stiffness;
use crate::bc::{DirichletBcs, DirichletStructure};
use crate::error::FemError;
use crate::material::MaterialTable;
use crate::solver::{build_preconditioner, FemSolution, FemSolveConfig};
use brainshift_imaging::Vec3;
use brainshift_mesh::TetMesh;
use brainshift_obs::Stopwatch;
use brainshift_sparse::{
    solve_escalated, CsrMatrix, EscalationPolicy, KrylovWorkspace, Preconditioner, SolverOptions,
};
use std::sync::Arc;

/// Counters proving the assemble-once / re-solve-many contract and
/// recording how often the solver had to fight for convergence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContextStats {
    /// Global stiffness assemblies behind this context's matrix: 1 for
    /// every context, whether it assembled `K` itself ([`SolverContext::new`])
    /// or shares one assembled elsewhere ([`SolverContext::with_matrix`]).
    pub assemblies: usize,
    /// Preconditioner factorizations performed by this context.
    pub factorizations: usize,
    /// Total solves served.
    pub solves: usize,
    /// Solves seeded from a previous solution instead of zero.
    pub warm_started_solves: usize,
    /// Solves that needed at least one escalation rung beyond the
    /// primary one.
    pub escalations: usize,
    /// Solves that did not converge even after the full escalation
    /// ladder (the returned field is the best iterate, not a solution).
    pub failed_solves: usize,
}

/// Wall-clock seconds spent in each setup/solve phase of a context —
/// the FEM half of the paper's per-stage breakdown. Kept separate from
/// [`ContextStats`] (which stays `Eq` for exact comparison in tests).
/// `solve_s` accumulates across solves; `last_solve_s` is the most
/// recent solve alone.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ContextTimings {
    /// Global stiffness assembly done by *this* build: 0 for a context
    /// built around a shared matrix ([`SolverContext::with_matrix`]).
    pub assembly_s: f64,
    /// Dirichlet reduction (building `K_ff`/`K_fc`).
    pub reduction_s: f64,
    /// Preconditioner factorization.
    pub factorization_s: f64,
    /// Cumulative Krylov solve time across all solves served.
    pub solve_s: f64,
    /// Krylov solve time of the most recent solve.
    pub last_solve_s: f64,
}

/// A per-surgery solver: fixed mesh, materials, and constrained node
/// set; cheap repeated solves as the prescribed values change per scan.
pub struct SolverContext {
    cfg: FemSolveConfig,
    num_nodes: usize,
    k: Arc<CsrMatrix>,
    structure: DirichletStructure,
    precond: Box<dyn Preconditioner>,
    workspace: KrylovWorkspace,
    /// Previous reduced solution; seeds the next solve.
    prev_x: Vec<f64>,
    has_prev: bool,
    u_c: Vec<f64>,
    rhs: Vec<f64>,
    full: Vec<f64>,
    stats: ContextStats,
    timings: ContextTimings,
}

impl SolverContext {
    /// Assemble the stiffness matrix for `mesh`/`materials`, reduce it
    /// along the DOFs of `constrained_nodes`, and factor the
    /// preconditioner — the once-per-surgery setup. The mesh is
    /// structurally validated first: a context built from an inverted or
    /// degenerate mesh would fail intraoperatively, so it must fail here.
    pub fn new(
        mesh: &TetMesh,
        materials: &MaterialTable,
        constrained_nodes: &[usize],
        cfg: FemSolveConfig,
    ) -> Result<Self, FemError> {
        mesh.validate()?;
        let sw = Stopwatch::wall();
        let k = Arc::new(assemble_stiffness(mesh, materials));
        let assembly_s = sw.elapsed_s();
        let mut ctx = Self::with_matrix(k, mesh, constrained_nodes, cfg)?;
        ctx.timings.assembly_s = assembly_s;
        Ok(ctx)
    }

    /// Build a context around a stiffness matrix assembled elsewhere —
    /// the once-per-surgery `K` that every context of a surgery shares.
    /// Only the Dirichlet reduction and one factorization run here; the
    /// matrix's one assembly is counted in [`ContextStats::assemblies`],
    /// but its time is not this build's ([`ContextTimings::assembly_s`]
    /// stays 0). The caller is responsible for `k` being the stiffness
    /// matrix of a validated `mesh`.
    pub fn with_matrix(
        k: Arc<CsrMatrix>,
        mesh: &TetMesh,
        constrained_nodes: &[usize],
        cfg: FemSolveConfig,
    ) -> Result<Self, FemError> {
        if k.nrows() != mesh.num_equations() {
            return Err(FemError::MatrixShapeMismatch {
                rows: k.nrows(),
                equations: mesh.num_equations(),
            });
        }
        if constrained_nodes.is_empty() {
            return Err(FemError::Unconstrained);
        }
        let mut sw = Stopwatch::wall();
        let structure = DirichletStructure::new(&k, constrained_nodes)?;
        let reduction_s = sw.lap_s();
        let precond = build_preconditioner(cfg.precond, &structure.matrix)?;
        let factorization_s = sw.lap_s();
        let nfree = structure.num_free();
        let nc = structure.num_constrained();
        Ok(SolverContext {
            cfg,
            num_nodes: mesh.num_nodes(),
            full: vec![0.0; k.nrows()],
            k,
            structure,
            precond,
            workspace: KrylovWorkspace::new(nfree),
            prev_x: vec![0.0; nfree],
            has_prev: false,
            u_c: vec![0.0; nc],
            rhs: vec![0.0; nfree],
            stats: ContextStats { assemblies: 1, factorizations: 1, ..Default::default() },
            timings: ContextTimings { reduction_s, factorization_s, ..Default::default() },
        })
    }

    /// Solve for the displacement field under `bcs`. The constrained
    /// node set must equal the one the context was built for (only the
    /// values may differ); returns [`FemError::BcSetMismatch`] otherwise.
    ///
    /// The solve is warm-started from the previous scan's solution when
    /// one exists (see [`Self::reset_warm_start`]). When the solver fails
    /// to converge even after escalation, the pre-solve warm-start seed
    /// is restored so one bad scan cannot poison the next scan's seed —
    /// the unconverged iterate is still returned for the caller to judge.
    pub fn solve(&mut self, bcs: &DirichletBcs) -> Result<FemSolution, FemError> {
        self.solve_with(bcs, None, None)
    }

    /// [`Self::solve`] with per-call overrides of the solver options
    /// and/or escalation policy (the context's configuration is used for
    /// whichever is `None`). Used by fault-injection tests and by callers
    /// that tighten the time budget for a specific scan.
    pub fn solve_with(
        &mut self,
        bcs: &DirichletBcs,
        opts_override: Option<&SolverOptions>,
        escalation_override: Option<&EscalationPolicy>,
    ) -> Result<FemSolution, FemError> {
        self.solve_loaded(bcs, None, opts_override, escalation_override)
    }

    /// The one solve routine. `loads` is the nodal load vector in
    /// original DOF numbering; `None` is the per-scan case of no body
    /// force (see [`DirichletStructure::rhs_into`]).
    pub(crate) fn solve_loaded(
        &mut self,
        bcs: &DirichletBcs,
        loads: Option<&[f64]>,
        opts_override: Option<&SolverOptions>,
        escalation_override: Option<&EscalationPolicy>,
    ) -> Result<FemSolution, FemError> {
        self.structure.rhs_into(bcs, loads, &mut self.u_c, &mut self.rhs)?;

        // Warm start: seed from the previous scan's reduced solution.
        let warm = self.has_prev;
        if !warm {
            self.prev_x.iter_mut().for_each(|v| *v = 0.0);
        }
        let seed_snapshot = self.prev_x.clone();
        let opts = opts_override.unwrap_or(&self.cfg.options);
        let escalation = escalation_override.unwrap_or(&self.cfg.escalation);
        let sw = Stopwatch::wall();
        let out = solve_escalated(
            &self.structure.matrix,
            self.precond.as_ref(),
            &self.rhs,
            &mut self.prev_x,
            self.cfg.krylov,
            opts,
            escalation,
            &mut self.workspace,
        )?;
        self.timings.last_solve_s = sw.elapsed_s();
        self.timings.solve_s += self.timings.last_solve_s;
        self.stats.solves += 1;
        if warm {
            self.stats.warm_started_solves += 1;
        }
        if out.escalated {
            self.stats.escalations += 1;
        }

        self.structure.expand_solution_into(&self.prev_x, &self.u_c, &mut self.full);
        let displacements = (0..self.num_nodes)
            .map(|n| Vec3::new(self.full[3 * n], self.full[3 * n + 1], self.full[3 * n + 2]))
            .collect();
        if out.stats.converged() {
            self.has_prev = true;
        } else {
            // Roll back: the next solve seeds from the last *good* field.
            self.stats.failed_solves += 1;
            self.prev_x = seed_snapshot;
        }
        Ok(FemSolution {
            displacements,
            stats: out.stats,
            attempts: out.attempts,
            escalated: out.escalated,
            rung_reasons: out.rung_reasons,
            rungs: out.rungs,
            reduced_equations: self.structure.num_free(),
            total_equations: self.k.nrows(),
        })
    }

    /// Forget the previous solution; the next solve starts from zero.
    pub fn reset_warm_start(&mut self) {
        self.has_prev = false;
    }

    /// Assembly / factorization / solve counters.
    pub fn stats(&self) -> ContextStats {
        self.stats
    }

    /// Wall-clock seconds spent per setup/solve phase so far.
    pub fn timings(&self) -> ContextTimings {
        self.timings
    }

    /// Approximate heap footprint of everything this context keeps alive
    /// between scans: the assembled stiffness matrix, the reduced
    /// `K_ff`/`K_fc` blocks and DOF maps, the factored preconditioner,
    /// the Krylov workspace, the warm-start/scratch vectors, and the
    /// configuration's heap (escalation restart ladder). This is what a
    /// memory-budgeted context cache charges a surgery for. `K` is
    /// counted in full even when it is shared with the surgery that
    /// assembled it, so the charge does not depend on who holds the
    /// matrix (evicting such a context frees everything but `K`).
    pub fn memory_bytes(&self) -> usize {
        self.k.memory_bytes()
            + self.structure.memory_bytes()
            + self.precond.memory_bytes()
            + std::mem::size_of_val(self.cfg.escalation.larger_restarts.as_slice())
            + self.workspace.bytes()
            + std::mem::size_of_val(self.u_c.as_slice())
            + std::mem::size_of_val(self.rhs.as_slice())
            + std::mem::size_of_val(self.full.as_slice())
            + std::mem::size_of_val(self.prev_x.as_slice())
    }

    /// The warm-start seed the next solve starts from: the last converged
    /// reduced solution, or `None` before the first converged solve (and
    /// after [`Self::reset_warm_start`]). It is all of a context's state
    /// that a rebuild does not reproduce, so it is what a snapshot keeps.
    pub fn warm_seed(&self) -> Option<&[f64]> {
        self.has_prev.then_some(self.prev_x.as_slice())
    }

    /// Seed the next solve with `seed`, one entry per reduced unknown, as
    /// if it were this context's last converged solution. A seed of any
    /// other length is [`FemError::SeedLengthMismatch`] and leaves the
    /// context untouched.
    pub fn set_warm_seed(&mut self, seed: &[f64]) -> Result<(), FemError> {
        if seed.len() != self.prev_x.len() {
            return Err(FemError::SeedLengthMismatch { len: seed.len(), unknowns: self.prev_x.len() });
        }
        self.prev_x.copy_from_slice(seed);
        self.has_prev = true;
        Ok(())
    }

    /// The full stiffness matrix (possibly shared with other contexts).
    pub fn matrix(&self) -> &CsrMatrix {
        &self.k
    }

    /// The cached reduction structure (`K_ff`, `K_fc`, DOF maps).
    pub fn structure(&self) -> &DirichletStructure {
        &self.structure
    }

    /// Unknowns in the reduced system.
    pub fn reduced_equations(&self) -> usize {
        self.structure.num_free()
    }

    /// The solver configuration this context was built with.
    pub fn config(&self) -> &FemSolveConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve_deformation;
    use brainshift_imaging::labels;
    use brainshift_imaging::volume::{Dims, Spacing, Volume};
    use brainshift_mesh::{boundary_nodes, mesh_labeled_volume, MesherConfig};
    use brainshift_sparse::{KrylovKind, SolverOptions, StopReason};
    use std::time::Duration;

    fn block_mesh(n: usize) -> TetMesh {
        let seg = Volume::from_fn(Dims::new(n, n, n), Spacing::iso(1.0), |_, _, _| labels::BRAIN);
        mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable })
    }

    fn tight() -> FemSolveConfig {
        FemSolveConfig {
            options: SolverOptions { tolerance: 1e-10, max_iterations: 5000, ..Default::default() },
            ..Default::default()
        }
    }

    fn scan_bcs(mesh: &TetMesh, surface: &[usize], scale: f64) -> DirichletBcs {
        let mut bcs = DirichletBcs::new();
        for &n in surface {
            let p = mesh.nodes[n];
            bcs.set(n, Vec3::new(0.0, 0.01 * scale * p.x, -0.05 * scale * (p.z + 1.0)));
        }
        bcs
    }

    #[test]
    fn context_matches_cold_solver_across_scans() {
        let mesh = block_mesh(4);
        let materials = MaterialTable::homogeneous();
        let surface = boundary_nodes(&mesh);
        let mut ctx = SolverContext::new(&mesh, &materials, &surface, tight()).expect("context build failed");
        for stage in 1..=4 {
            let bcs = scan_bcs(&mesh, &surface, stage as f64);
            let warm = ctx.solve(&bcs).expect("solve failed");
            let cold = solve_deformation(&mesh, &materials, &bcs, &tight()).expect("solve failed");
            assert!(warm.stats.converged() && cold.stats.converged());
            for (a, b) in warm.displacements.iter().zip(&cold.displacements) {
                assert!((*a - *b).norm() < 1e-7, "stage {stage}: {a:?} vs {b:?}");
            }
        }
        let s = ctx.stats();
        assert_eq!(s.assemblies, 1);
        assert_eq!(s.factorizations, 1);
        assert_eq!(s.solves, 4);
        assert_eq!(s.warm_started_solves, 3);
    }

    #[test]
    fn warm_start_converges_no_slower_than_zero_start() {
        let mesh = block_mesh(5);
        let materials = MaterialTable::homogeneous();
        let surface = boundary_nodes(&mesh);
        let cfg = tight();
        // Two consecutive scans with nearby boundary displacements.
        let bcs1 = scan_bcs(&mesh, &surface, 1.0);
        let bcs2 = scan_bcs(&mesh, &surface, 1.1);

        let mut warm_ctx = SolverContext::new(&mesh, &materials, &surface, cfg.clone()).expect("context build failed");
        warm_ctx.solve(&bcs1).expect("solve failed");
        let warm = warm_ctx.solve(&bcs2).expect("solve failed");

        let mut zero_ctx = SolverContext::new(&mesh, &materials, &surface, cfg).expect("context build failed");
        let zero = zero_ctx.solve(&bcs2).expect("solve failed");

        assert!(warm.stats.converged() && zero.stats.converged());
        assert!(
            warm.stats.iterations <= zero.stats.iterations,
            "warm {} > zero {}",
            warm.stats.iterations,
            zero.stats.iterations
        );
    }

    #[test]
    fn reset_warm_start_reverts_to_zero_seed() {
        let mesh = block_mesh(3);
        let materials = MaterialTable::homogeneous();
        let surface = boundary_nodes(&mesh);
        let mut ctx = SolverContext::new(&mesh, &materials, &surface, tight()).expect("context build failed");
        let bcs = scan_bcs(&mesh, &surface, 1.0);
        let first = ctx.solve(&bcs).expect("solve failed");
        ctx.reset_warm_start();
        let second = ctx.solve(&bcs).expect("solve failed");
        assert_eq!(first.stats.iterations, second.stats.iterations);
        assert_eq!(ctx.stats().warm_started_solves, 0);
    }

    #[test]
    fn memory_accounting_covers_the_cached_state() {
        let mesh = block_mesh(4);
        let surface = boundary_nodes(&mesh);
        let ctx =
            SolverContext::new(&mesh, &MaterialTable::homogeneous(), &surface, tight()).expect("context build failed");
        let bytes = ctx.memory_bytes();
        // At minimum the context holds K plus the reduced blocks — all
        // three are CSR matrices with this mesh's sparsity.
        let floor = ctx.matrix().memory_bytes() + ctx.structure().matrix.memory_bytes();
        assert!(bytes >= floor, "{bytes} < {floor}");
        // A larger mesh must account strictly more memory.
        let mesh2 = block_mesh(6);
        let surface2 = boundary_nodes(&mesh2);
        let ctx2 =
            SolverContext::new(&mesh2, &MaterialTable::homogeneous(), &surface2, tight()).expect("context build failed");
        assert!(ctx2.memory_bytes() > bytes);
    }

    #[test]
    fn mismatched_bc_set_rejected() {
        let mesh = block_mesh(3);
        let surface = boundary_nodes(&mesh);
        let mut ctx =
            SolverContext::new(&mesh, &MaterialTable::homogeneous(), &surface, tight()).expect("context build failed");
        // Prescribe only one node: not the context's constrained set.
        let mut bcs = DirichletBcs::new();
        bcs.set(surface[0], Vec3::ZERO);
        assert!(matches!(ctx.solve(&bcs), Err(FemError::BcSetMismatch { .. })));
        // An unconstrained build is rejected too.
        let r = SolverContext::new(&mesh, &MaterialTable::homogeneous(), &[], tight());
        assert!(matches!(r, Err(FemError::Unconstrained)));
    }

    #[test]
    fn timings_cover_every_phase_and_accumulate() {
        let mesh = block_mesh(4);
        let surface = boundary_nodes(&mesh);
        let mut ctx =
            SolverContext::new(&mesh, &MaterialTable::homogeneous(), &surface, tight()).expect("context build failed");
        let t0 = ctx.timings();
        assert!(t0.assembly_s >= 0.0 && t0.reduction_s >= 0.0 && t0.factorization_s >= 0.0);
        assert_eq!(t0.solve_s, 0.0);
        ctx.solve(&scan_bcs(&mesh, &surface, 1.0)).expect("solve failed");
        let t1 = ctx.timings();
        assert!(t1.solve_s > 0.0, "nanosecond-precision clock: a real solve never times at 0");
        assert_eq!(t1.last_solve_s, t1.solve_s);
        // Setup phases are once-per-surgery: untouched by a solve.
        assert_eq!(t1.assembly_s, t0.assembly_s);
        assert_eq!(t1.factorization_s, t0.factorization_s);
        ctx.solve(&scan_bcs(&mesh, &surface, 1.5)).expect("solve failed");
        let t2 = ctx.timings();
        assert!(t2.solve_s > t1.solve_s, "solve time accumulates");
        assert!(t2.last_solve_s <= t2.solve_s);
    }

    #[test]
    fn a_cg_context_honours_a_zero_time_budget() {
        let mesh = block_mesh(4);
        let surface = boundary_nodes(&mesh);
        let mut cfg = tight();
        cfg.options.time_budget = Some(Duration::ZERO);
        assert_eq!(cfg.krylov, KrylovKind::ConjugateGradient);
        let mut ctx = SolverContext::new(&mesh, &MaterialTable::homogeneous(), &surface, cfg).expect("context build failed");
        let sol = ctx.solve(&scan_bcs(&mesh, &surface, 1.0)).expect("solve failed");
        assert_eq!(sol.stats.reason, StopReason::TimeBudget);
        assert_eq!(sol.rung_reasons, vec![StopReason::TimeBudget], "no rung runs after the budget expired");
        assert_eq!(ctx.stats().failed_solves, 1);
    }

    #[test]
    fn a_starved_cg_rung_escalates_to_gmres() {
        let mesh = block_mesh(4);
        let surface = boundary_nodes(&mesh);
        let bcs = scan_bcs(&mesh, &surface, 1.0);
        let mut cfg = tight();
        cfg.options.max_iterations = 3;
        let mut alone_cfg = cfg.clone();
        alone_cfg.escalation = EscalationPolicy::none();
        let materials = MaterialTable::homogeneous();
        let cg = SolverContext::new(&mesh, &materials, &surface, alone_cfg)
            .expect("context build failed")
            .solve(&bcs)
            .expect("solve failed");
        assert_eq!(cg.attempts, 1);
        let mut ctx = SolverContext::new(&mesh, &materials, &surface, cfg).expect("context build failed");
        let sol = ctx.solve(&bcs).expect("solve failed");
        let solvers: Vec<&str> = sol.rungs.iter().map(|r| r.solver).collect();
        assert_eq!(solvers[..2], ["cg", "gmres"]);
        assert!(sol.escalated && sol.attempts >= 2, "{solvers:?}");
        assert_eq!(sol.rungs[0].iterations, cg.stats.iterations);
        assert!(sol.stats.relative_residual <= cg.stats.relative_residual);
        assert_eq!(ctx.stats().escalations, 1);
    }

    #[test]
    fn a_seeded_rebuild_solves_like_the_context_it_was_taken_from() {
        let mesh = block_mesh(4);
        let surface = boundary_nodes(&mesh);
        let k = Arc::new(assemble_stiffness(&mesh, &MaterialTable::homogeneous()));
        let build = || SolverContext::with_matrix(Arc::clone(&k), &mesh, &surface, tight()).expect("context build failed");
        let mut live = build();
        assert_eq!(live.warm_seed(), None, "no seed before the first solve");
        live.solve(&scan_bcs(&mesh, &surface, 1.0)).expect("solve failed");
        let seed = live.warm_seed().expect("converged solve leaves a seed").to_vec();

        let mut rebuilt = build();
        let short = rebuilt.set_warm_seed(&seed[1..]);
        assert_eq!(short, Err(FemError::SeedLengthMismatch { len: seed.len() - 1, unknowns: seed.len() }));
        assert_eq!(rebuilt.warm_seed(), None, "a refused seed leaves the context cold");
        rebuilt.set_warm_seed(&seed).expect("seed fits");

        let bcs = scan_bcs(&mesh, &surface, 1.3);
        let (a, b) = (live.solve(&bcs).expect("solve failed"), rebuilt.solve(&bcs).expect("solve failed"));
        let bits = |s: &FemSolution| -> Vec<u64> {
            s.displacements.iter().flat_map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]).collect()
        };
        assert_eq!(a.stats.iterations, b.stats.iterations);
        assert_eq!(bits(&a), bits(&b), "a seeded rebuild solved differently");
        assert_eq!(rebuilt.stats().warm_started_solves, 1);
    }

    #[test]
    fn identical_scans_solve_in_zero_iterations_when_warm() {
        let mesh = block_mesh(4);
        let surface = boundary_nodes(&mesh);
        let mut ctx =
            SolverContext::new(&mesh, &MaterialTable::homogeneous(), &surface, tight()).expect("context build failed");
        let bcs = scan_bcs(&mesh, &surface, 2.0);
        ctx.solve(&bcs).expect("solve failed");
        // Same boundary values again: the warm start *is* the solution.
        let again = ctx.solve(&bcs).expect("solve failed");
        assert!(again.stats.converged());
        assert_eq!(again.stats.iterations, 0, "warm start should satisfy the system");
    }
}
