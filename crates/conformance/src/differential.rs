//! Differential solver harness: one problem, every solve path.
//!
//! The repo has several routes to the same reduced system — cold GMRES
//! (the paper's method), cold CG (the production method), the warm
//! per-surgery [`SolverContext`], and the thread-message-passing
//! distributed GMRES at 1/2/4/8 ranks. They share the assembly and
//! Dirichlet reduction but nothing else; a bug in any one of them shows up as a field that
//! silently disagrees with its siblings. This harness solves the reduced
//! system of one [`SolverContext`] through all of them and asserts
//! pairwise agreement of the *expanded nodal displacement fields*, which
//! is the quantity the registration pipeline actually consumes.

use brainshift_cluster::{distributed_gmres_ghosted, run_ranks, GhostedSystem, LocalSystem};
use brainshift_fem::{DirichletBcs, DirichletStructure, FemSolveConfig, MaterialTable, SolverContext};
use brainshift_imaging::Vec3;
use brainshift_mesh::TetMesh;
use brainshift_scenario::{generate_scenario, keypoint_recovery_curve, ScenarioKind};
pub use brainshift_scenario::RecoveryPoint;
use brainshift_sparse::{
    conjugate_gradient, gmres, partition::even_offsets, BlockJacobiPrecond, BlockSolve,
    KrylovWorkspace, SolverOptions,
};

/// Knobs for the harness.
#[derive(Debug, Clone)]
pub struct DifferentialOptions {
    /// Krylov relative-residual tolerance used by every path. Pairwise
    /// field agreement is bounded by roughly `tolerance × κ`, so this
    /// sits well below the 1e-6 acceptance threshold.
    pub tolerance: f64,
    /// Iteration cap for every path.
    pub max_iterations: usize,
    /// Block count of the block-Jacobi/IC(0) preconditioner for the
    /// shared-memory paths.
    pub blocks: usize,
    /// Rank counts for the distributed path.
    pub ranks: Vec<usize>,
}

impl Default for DifferentialOptions {
    fn default() -> Self {
        DifferentialOptions {
            tolerance: 1e-10,
            max_iterations: 20_000,
            blocks: 4,
            ranks: vec![1, 2, 4, 8],
        }
    }
}

/// One solve path's expanded nodal field plus its solve diagnostics.
#[derive(Debug, Clone)]
pub struct PathField {
    /// Path label (`"gmres"`, `"cg"`, `"context-warm"`,
    /// `"distributed-p4"`, …).
    pub name: String,
    /// Per-node displacement after expansion through the Dirichlet
    /// structure (constrained nodes carry the imposed values).
    pub field: Vec<Vec3>,
    /// Whether this path's solver reported convergence.
    pub converged: bool,
    /// Iterations the path spent.
    pub iterations: usize,
    /// Final relative residual the path reported.
    pub relative_residual: f64,
}

/// Outcome of the harness: all fields plus the pairwise deviations.
#[derive(Debug, Clone)]
pub struct DifferentialResult {
    /// Every solve path, in a fixed order.
    pub paths: Vec<PathField>,
    /// `(name_a, name_b, max-node deviation / field scale)` for every
    /// unordered pair.
    pub pairwise: Vec<(String, String, f64)>,
    /// Largest entry of `pairwise` — the headline number.
    pub max_pairwise_rel: f64,
}

impl DifferentialResult {
    /// True when every path converged and every pair agrees to `tol`.
    pub fn agrees_within(&self, tol: f64) -> bool {
        self.paths.iter().all(|p| p.converged) && self.max_pairwise_rel <= tol
    }
}

fn expand_to_nodes(
    structure: &DirichletStructure,
    x_reduced: &[f64],
    u_c: &[f64],
    num_nodes: usize,
) -> Vec<Vec3> {
    let mut full = vec![0.0; 3 * num_nodes];
    structure.expand_solution_into(x_reduced, u_c, &mut full);
    (0..num_nodes)
        .map(|n| Vec3::new(full[3 * n], full[3 * n + 1], full[3 * n + 2]))
        .collect()
}

/// Solve `mesh`/`materials`/`bcs` through every path and compare the
/// resulting fields pairwise. Panics only on structurally invalid input
/// (empty BCs, broken mesh) — solver non-convergence is *reported*, not
/// panicked, so the caller's assertion message can show which path and
/// by how much.
pub fn run_differential(
    mesh: &TetMesh,
    materials: &MaterialTable,
    bcs: &DirichletBcs,
    opts: &DifferentialOptions,
) -> DifferentialResult {
    let sopts = SolverOptions {
        tolerance: opts.tolerance,
        max_iterations: opts.max_iterations,
        ..Default::default()
    };
    // The one reduction: path 3's context builds it and every other path
    // borrows it. The context solves first so that the borrow can last.
    let cfg = FemSolveConfig { options: sopts.clone(), ..Default::default() };
    let mut ctx = SolverContext::new(mesh, materials, &bcs.nodes_sorted(), cfg)
        .expect("context setup must succeed on a valid mesh");
    // 3. Warm SolverContext (the default CG + block-Jacobi IC(0)): solve
    //    twice, keep the warm-started second solve — the intraoperative
    //    steady state.
    let _cold = ctx.solve(bcs).expect("cold context solve");
    let warm = ctx.solve(bcs).expect("warm context solve");
    let context_warm = PathField {
        name: "context-warm".into(),
        field: warm.displacements,
        converged: warm.stats.converged(),
        iterations: warm.stats.iterations,
        relative_residual: warm.stats.relative_residual,
    };

    let structure = ctx.structure();
    let nfree = structure.num_free();
    let num_nodes = mesh.num_nodes();
    let mut u_c = vec![0.0; structure.num_constrained()];
    let mut rhs = vec![0.0; nfree];
    structure
        .rhs_into(bcs, None, &mut u_c, &mut rhs)
        .expect("BCs were used to build the structure");

    let a = &structure.matrix;
    let pc = BlockJacobiPrecond::new(a, opts.blocks.min(nfree).max(1), BlockSolve::Ic0)
        .expect("reduced stiffness blocks are non-singular");

    let mut paths: Vec<PathField> = Vec::new();

    // 1. Cold restarted GMRES — the paper's configuration.
    {
        let mut x = vec![0.0; nfree];
        let stats = gmres(a, &pc, &rhs, &mut x, &sopts).expect("reduced system dims agree");
        paths.push(PathField {
            name: "gmres".into(),
            field: expand_to_nodes(structure, &x, &u_c, num_nodes),
            converged: stats.converged(),
            iterations: stats.iterations,
            relative_residual: stats.relative_residual,
        });
    }

    // 2. Cold preconditioned CG — the production method — from a zero
    //    start on the identical reduced system.
    {
        let mut x = vec![0.0; nfree];
        let mut ws = KrylovWorkspace::new(nfree);
        let stats =
            conjugate_gradient(a, &pc, &rhs, &mut x, &sopts, &mut ws).expect("reduced system dims agree");
        paths.push(PathField {
            name: "cg".into(),
            field: expand_to_nodes(structure, &x, &u_c, num_nodes),
            converged: stats.converged(),
            iterations: stats.iterations,
            relative_residual: stats.relative_residual,
        });
    }

    paths.push(context_warm);

    // 4. Distributed ghosted GMRES over the reduced system at each rank
    //    count (rank-0's stats are representative — all ranks return the
    //    same stats by construction).
    for &p in &opts.ranks {
        let offsets = even_offsets(nfree, p);
        let eff_ranks = offsets.len() - 1;
        let per_rank = run_ranks(eff_ranks, |comm| {
            let r = comm.rank();
            let (lo, hi) = (offsets[r], offsets[r + 1]);
            let sys = LocalSystem::from_global(a, lo, hi).expect("offsets are in range");
            let ghosted = GhostedSystem::new(comm, sys, &offsets);
            distributed_gmres_ghosted(comm, &ghosted, &rhs[lo..hi], &sopts)
        });
        let stats = per_rank[0].1.clone();
        let x: Vec<f64> = per_rank.into_iter().flat_map(|(xl, _)| xl).collect();
        paths.push(PathField {
            name: format!("distributed-p{p}"),
            field: expand_to_nodes(structure, &x, &u_c, num_nodes),
            converged: stats.converged(),
            iterations: stats.iterations,
            relative_residual: stats.relative_residual,
        });
    }

    // Pairwise max-node deviation, normalized by the largest displacement
    // magnitude any path produced (the clinically meaningful scale).
    let scale = paths
        .iter()
        .flat_map(|p| p.field.iter())
        .fold(0.0f64, |m, u| m.max(u.norm()))
        .max(1e-300);
    let mut pairwise = Vec::new();
    let mut max_pairwise_rel = 0.0f64;
    for i in 0..paths.len() {
        for j in i + 1..paths.len() {
            let dev = paths[i]
                .field
                .iter()
                .zip(paths[j].field.iter())
                .fold(0.0f64, |m, (a, b)| m.max((*a - *b).norm()))
                / scale;
            max_pairwise_rel = max_pairwise_rel.max(dev);
            pairwise.push((paths[i].name.clone(), paths[j].name.clone(), dev));
        }
    }
    DifferentialResult { paths, pairwise, max_pairwise_rel }
}

/// Outcome of the sparse-keypoint differential: the dense ground truth
/// re-solved from nested K-keypoint subsets.
#[derive(Debug, Clone)]
pub struct KeypointRecoveryResult {
    /// Seed of the generated sparse-keypoint scenario.
    pub seed: u64,
    /// Boundary nodes available as keypoints.
    pub total_keypoints: usize,
    /// Recovery error at each requested K, ascending.
    pub curve: Vec<RecoveryPoint>,
    /// RMS error non-increasing along the curve (the nested-subset
    /// guarantee), with a 1e-9 mm slack for solver noise.
    pub monotone: bool,
    /// Relative max-node error at K = all boundary nodes, where the
    /// constrained system *is* the dense system — must sit at solver
    /// precision (≤ 1e-6).
    pub full_coverage_rel: f64,
}

/// Run the keypoint-recovery differential on one seeded scenario:
/// generate the dense ground truth, re-solve from nested keypoint
/// prefixes at each fraction of the boundary (plus full coverage), and
/// score the curve. `fractions` are clamped per
/// [`brainshift_scenario::keypoint_recovery_curve`].
pub fn run_keypoint_recovery(seed: u64, fractions: &[f64]) -> KeypointRecoveryResult {
    let case = generate_scenario(ScenarioKind::SparseKeypoints, seed)
        .unwrap_or_else(|e| panic!("sparse-keypoint scenario {seed} must generate: {e}"));
    let total = case.keypoint_order.len();
    let mut ks: Vec<usize> = fractions
        .iter()
        .map(|f| ((total as f64) * f.clamp(0.0, 1.0)).round() as usize)
        .collect();
    ks.push(total);
    ks.sort_unstable();
    ks.dedup();
    let curve = keypoint_recovery_curve(&case, &ks)
        .unwrap_or_else(|e| panic!("keypoint recovery solve failed: {e}"));
    let monotone = curve.windows(2).all(|w| w[1].rms_mm <= w[0].rms_mm + 1e-9);
    let full_coverage_rel = curve.last().map(|p| p.rel_max).unwrap_or(f64::INFINITY);
    KeypointRecoveryResult { seed, total_keypoints: total, curve, monotone, full_coverage_rel }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::unit_cube_mesh;
    use crate::mms::manufactured_field;
    use brainshift_mesh::boundary_nodes;

    #[test]
    fn all_solver_paths_agree_on_one_problem() {
        let mesh = unit_cube_mesh(4);
        let mut bcs = DirichletBcs::new();
        for &n in boundary_nodes(&mesh).iter() {
            bcs.set(n, manufactured_field(mesh.nodes[n]));
        }
        let r = run_differential(&mesh, &MaterialTable::homogeneous(), &bcs, &Default::default());
        let names: Vec<&str> = r.paths.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "gmres",
                "cg",
                "context-warm",
                "distributed-p1",
                "distributed-p2",
                "distributed-p4",
                "distributed-p8",
            ]
        );
        for p in &r.paths {
            assert!(p.converged, "{} did not converge: {:?}", p.name, p.relative_residual);
        }
        assert!(
            r.agrees_within(1e-6),
            "worst pair {:?}",
            r.pairwise
                .iter()
                .max_by(|a, b| a.2.total_cmp(&b.2))
        );
    }

    #[test]
    fn constrained_nodes_carry_imposed_values_in_every_path() {
        let mesh = unit_cube_mesh(3);
        let surface = boundary_nodes(&mesh);
        let mut bcs = DirichletBcs::new();
        for &n in surface.iter() {
            bcs.set(n, manufactured_field(mesh.nodes[n]));
        }
        let opts = DifferentialOptions { ranks: vec![2], ..Default::default() };
        let r = run_differential(&mesh, &MaterialTable::homogeneous(), &bcs, &opts);
        for p in &r.paths {
            for &n in surface.iter() {
                let imposed = manufactured_field(mesh.nodes[n]);
                assert!(
                    (p.field[n] - imposed).norm() < 1e-14,
                    "{}: node {n} drifted off its BC",
                    p.name
                );
            }
        }
    }
}
