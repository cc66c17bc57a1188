//! The FEM solve driver: solver configuration, the solution record, and
//! the cold (one-shot) entry points.
//!
//! This is the computational heart of the paper: minimizing the elastic
//! energy (Eq. 1) after "fixing the displacements at the surface to match
//! those generated by the active surface model". The paper solves with
//! GMRES and block-Jacobi preconditioning; the reduced `K_ff` is SPD, so
//! the default here is preconditioned CG on block-Jacobi IC(0) — on a
//! symmetric matrix the operator of PETSc's block-Jacobi ILU(0) — with
//! the paper's GMRES one [`FemSolveConfig`] value away. The solve itself
//! — reduce, precondition, one Krylov call, expand — lives in
//! [`SolverContext`];
//! a cold solve builds a context around the freshly assembled matrix,
//! solves once, and drops it.

use crate::assembly::assemble_stiffness;
use crate::bc::DirichletBcs;
use crate::context::SolverContext;
use crate::error::FemError;
use crate::material::MaterialTable;
use brainshift_imaging::Vec3;
use brainshift_mesh::TetMesh;
use brainshift_sparse::{SolveStats, SolverOptions};
pub use brainshift_sparse::KrylovKind;

/// Block-Jacobi block count of every FEM solve (the paper puts one block
/// on each CPU). Each block is factored with IC(0) — on the symmetric
/// `K_ff`, the operator of PETSc's default ILU(0) sub-preconditioner.
pub const BLOCKS: usize = 4;

/// Full solver configuration.
#[derive(Debug, Clone)]
pub struct FemSolveConfig {
    /// Krylov method: CG for the SPD `K_ff`, or the paper's GMRES; both
    /// on block-Jacobi IC(0) with [`BLOCKS`] blocks.
    pub krylov: KrylovKind,
    /// Tolerance / iteration budget / restart length / wall-clock
    /// budget. A solve that does not converge within them is final.
    pub options: SolverOptions,
}

impl Default for FemSolveConfig {
    fn default() -> Self {
        FemSolveConfig {
            krylov: KrylovKind::ConjugateGradient,
            options: SolverOptions::default(),
        }
    }
}

/// Result of a biomechanical solve.
///
/// Non-convergence is reported *here* (`stats.converged() == false`), not
/// as a [`FemError`]: the iterate is still the best available field and
/// the intraoperative pipeline decides whether to use or discard it.
pub struct FemSolution {
    /// Displacement of every mesh node (mm).
    pub displacements: Vec<Vec3>,
    /// Krylov convergence statistics; `stats.reason` says *how* the
    /// solve concluded (converged, out of iterations, out of time,
    /// breakdown), which serving layers log.
    pub stats: SolveStats,
    /// Size of the reduced (free) system actually solved.
    pub reduced_equations: usize,
    /// Size of the full system before substitution (the paper's quoted
    /// 77 511 / 253 308 "equations").
    pub total_equations: usize,
}

/// Solve the volumetric deformation problem: elastic body `mesh` with
/// `materials`, surface displacements `bcs`, no body forces.
pub fn solve_deformation(
    mesh: &TetMesh,
    materials: &MaterialTable,
    bcs: &DirichletBcs,
    cfg: &FemSolveConfig,
) -> Result<FemSolution, FemError> {
    // An explicit zero load, not the context's no-load shortcut: the
    // reduced right-hand side is then `0.0 − K_fc·u_c`, whose zeros are
    // `+0.0` where the shortcut's `−(K_fc·u_c)` gives `−0.0`. Cold solves
    // have always used this form; keeping it keeps them bit-identical.
    solve_with_loads(mesh, materials, bcs, &vec![0.0; mesh.num_equations()], cfg)
}

/// [`solve_deformation`] with an externally assembled nodal load vector
/// (length `mesh.num_equations()`, units Pa·mm² per DOF) — gravity sag and
/// other body-force-driven scenarios assemble their loads with
/// [`crate::loads`] and solve through here.
///
/// A one-shot [`SolverContext`]: the assembled matrix moves into a
/// context constrained at the nodes of `bcs`, which solves once from a
/// zero start and is dropped. Callers that solve the same mesh and
/// constrained set repeatedly should hold the context themselves.
pub fn solve_with_loads(
    mesh: &TetMesh,
    materials: &MaterialTable,
    bcs: &DirichletBcs,
    loads: &[f64],
    cfg: &FemSolveConfig,
) -> Result<FemSolution, FemError> {
    if loads.len() != mesh.num_equations() {
        return Err(FemError::LoadVectorMismatch {
            len: loads.len(),
            equations: mesh.num_equations(),
        });
    }
    let k = std::sync::Arc::new(assemble_stiffness(mesh, materials));
    let mut ctx = SolverContext::with_matrix(k, mesh, &bcs.nodes_sorted(), cfg.clone())?;
    ctx.solve_loaded(bcs, Some(loads), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use brainshift_imaging::labels;
    use brainshift_imaging::volume::{Dims, Spacing, Volume};
    use brainshift_imaging::Mat3;
    use brainshift_mesh::{boundary_nodes, mesh_labeled_volume, MesherConfig};

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

    /// The constant-strain patch test: linear boundary displacements must
    /// be reproduced exactly in the interior.
    #[test]
    fn patch_test_linear_field() {
        let mesh = block_mesh(4);
        let a = Mat3::from_rows([0.01, 0.002, 0.0], [0.0, -0.005, 0.003], [0.001, 0.0, 0.007]);
        let field = |p: brainshift_imaging::Vec3| a * p;
        let mut bcs = DirichletBcs::new();
        for &n in boundary_nodes(&mesh).iter() {
            bcs.set(n, field(mesh.nodes[n]));
        }
        let sol = solve_deformation(&mesh, &MaterialTable::homogeneous(), &bcs, &tight()).expect("solve failed");
        assert!(sol.stats.converged(), "{:?}", sol.stats);
        for (n, &u) in sol.displacements.iter().enumerate() {
            let expect = field(mesh.nodes[n]);
            assert!(
                (u - expect).norm() < 1e-7,
                "node {n}: got {u:?}, want {expect:?}"
            );
        }
    }

    #[test]
    fn rigid_translation_everywhere() {
        let mesh = block_mesh(3);
        let t = Vec3::new(2.0, -1.0, 0.5);
        let mut bcs = DirichletBcs::new();
        for &n in boundary_nodes(&mesh).iter() {
            bcs.set(n, t);
        }
        let sol = solve_deformation(&mesh, &MaterialTable::homogeneous(), &bcs, &tight()).expect("solve failed");
        assert!(sol.stats.converged());
        for &u in &sol.displacements {
            assert!((u - t).norm() < 1e-7);
        }
    }

    #[test]
    fn interior_displacement_bounded_by_boundary() {
        // Maximum principle-like sanity: with one face pushed down and the
        // rest fixed, interior displacement magnitude can't exceed the
        // prescribed maximum (for this smooth elliptic problem).
        let mesh = block_mesh(4);
        let mut bcs = DirichletBcs::new();
        for &n in boundary_nodes(&mesh).iter() {
            let p = mesh.nodes[n];
            if p.z > 3.9 {
                bcs.set(n, Vec3::new(0.0, 0.0, -1.0));
            } else {
                bcs.set(n, Vec3::ZERO);
            }
        }
        let sol = solve_deformation(&mesh, &MaterialTable::homogeneous(), &bcs, &tight()).expect("solve failed");
        assert!(sol.stats.converged());
        let max_u = sol.displacements.iter().map(|u| u.norm()).fold(0.0, f64::max);
        assert!(max_u <= 1.0 + 1e-6, "max {max_u}");
        // And the interior actually moved.
        let interior_moved = sol
            .displacements
            .iter()
            .enumerate()
            .filter(|(n, _)| bcs.get(*n).is_none())
            .any(|(_, u)| u.norm() > 1e-4);
        assert!(interior_moved);
    }

    #[test]
    fn gmres_and_cg_agree_on_spd_system() {
        let mesh = block_mesh(3);
        let mut bcs = DirichletBcs::new();
        for &n in boundary_nodes(&mesh).iter() {
            let p = mesh.nodes[n];
            bcs.set(n, Vec3::new(0.05 * p.z, 0.0, -0.1 * p.x));
        }
        let mut cfg = tight();
        cfg.krylov = KrylovKind::Gmres;
        let s1 = solve_deformation(&mesh, &MaterialTable::homogeneous(), &bcs, &cfg).expect("solve failed");
        cfg.krylov = KrylovKind::ConjugateGradient;
        let s2 = solve_deformation(&mesh, &MaterialTable::homogeneous(), &bcs, &cfg).expect("solve failed");
        assert!(s1.stats.converged() && s2.stats.converged());
        for (a, b) in s1.displacements.iter().zip(&s2.displacements) {
            assert!((*a - *b).norm() < 1e-6);
        }
    }

    #[test]
    fn stiffer_inclusion_deforms_less() {
        // Heterogeneous ablation: replace the centre with falx-stiff
        // material; its displacement under shear is smaller than the
        // homogeneous case.
        let n = 5;
        let seg = Volume::from_fn(Dims::new(n, n, n), Spacing::iso(1.0), |x, y, z| {
            if (2..3).contains(&x) && (2..3).contains(&y) && (2..3).contains(&z) {
                labels::FALX
            } else {
                labels::BRAIN
            }
        });
        let mesh = mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable });
        let mut bcs = DirichletBcs::new();
        for &bn in boundary_nodes(&mesh).iter() {
            let p = mesh.nodes[bn];
            // Linear shear along x growing with z.
            bcs.set(bn, Vec3::new(0.2 * p.z, 0.0, 0.0));
        }
        let homo = solve_deformation(&mesh, &MaterialTable::homogeneous(), &bcs, &tight()).expect("solve failed");
        let het = solve_deformation(&mesh, &MaterialTable::heterogeneous(), &bcs, &tight()).expect("solve failed");
        assert!(homo.stats.converged() && het.stats.converged());
        // The solutions must differ somewhere (material matters).
        let diff: f64 = homo
            .displacements
            .iter()
            .zip(&het.displacements)
            .map(|(a, b)| (*a - *b).norm())
            .fold(0.0, f64::max);
        assert!(diff > 1e-6, "materials had no effect");
    }

    #[test]
    fn unconstrained_system_rejected() {
        let mesh = block_mesh(2);
        let bcs = DirichletBcs::new();
        let r = solve_deformation(&mesh, &MaterialTable::homogeneous(), &bcs, &FemSolveConfig::default());
        assert!(matches!(r, Err(FemError::Unconstrained)));
    }

    #[test]
    fn reduced_size_reported() {
        let mesh = block_mesh(3);
        let mut bcs = DirichletBcs::new();
        for &n in boundary_nodes(&mesh).iter() {
            bcs.set(n, Vec3::ZERO);
        }
        let sol = solve_deformation(&mesh, &MaterialTable::homogeneous(), &bcs, &tight()).expect("solve failed");
        assert_eq!(sol.total_equations, mesh.num_equations());
        assert_eq!(sol.reduced_equations, mesh.num_equations() - 3 * bcs.len());
    }
}
