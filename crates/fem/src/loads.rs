//! Body-force load vectors (gravity).
//!
//! The paper's energy (Eq. 1) includes externally applied forces; its
//! pipeline drives the model purely by surface displacements, but the
//! *physics* of brain shift is gravity acting on tissue once CSF drains.
//! This module assembles the consistent nodal load vector of gravity on
//! brain tissue, enabling gravity-driven simulations (the gravity-driven
//! ground truths of `core::case` and the scenario corpus, and a solver
//! cross-check).
//!
//! Units: the stiffness matrix is assembled with E in Pa and lengths in
//! mm, so forces are in Pa·mm² (µN) and body-force densities in Pa/mm;
//! `gravity_load_density` converts from SI (kg/m³, m/s²).

use brainshift_imaging::Vec3;
use brainshift_mesh::TetMesh;

/// Convert a mass density (kg/m³) under gravity `g` (m/s², vector) to the
/// body-force density in the assembler's Pa/mm unit system.
fn gravity_load_density(rho_kg_m3: f64, g_m_s2: Vec3) -> Vec3 {
    // ρg [N/m³] × 1e-3 → Pa/mm.
    g_m_s2 * (rho_kg_m3 * 1e-3)
}

/// Typical brain tissue density, kg/m³.
const BRAIN_DENSITY: f64 = 1040.0;
/// Standard gravity pointing along −z, m/s².
fn standard_gravity() -> Vec3 {
    Vec3::new(0.0, 0.0, -9.81)
}

/// Assemble the consistent nodal load vector for the body-force density
/// `w` (Pa/mm): each element spreads `w × V` equally over its four nodes
/// (exact for linear shape functions and constant force).
fn assemble_body_force(mesh: &TetMesh, w: Vec3) -> Vec<f64> {
    let mut f = vec![0.0; mesh.num_equations()];
    for (t, tet) in mesh.tets.iter().enumerate() {
        let v = mesh.tet_volume(t);
        let share = w * (v / 4.0);
        for &n in tet {
            f[3 * n] += share.x;
            f[3 * n + 1] += share.y;
            f[3 * n + 2] += share.z;
        }
    }
    f
}

/// Uniform gravity load along an arbitrary direction: standard gravity
/// magnitude, brain density, direction normalized from `dir`. This is the
/// intraoperative situation — the patient's head is oriented so the
/// craniotomy faces "up", so gravity points along the inward craniotomy
/// axis rather than world −z.
pub fn assemble_directed_gravity(mesh: &TetMesh, dir: Vec3) -> Vec<f64> {
    let g_mag = gravity_load_density(BRAIN_DENSITY, standard_gravity()).norm();
    let w = dir.normalized() * g_mag;
    assemble_body_force(mesh, w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bc::DirichletBcs;
    use crate::material::MaterialTable;
    use crate::solver::{solve_with_loads, FemSolveConfig};
    use brainshift_imaging::labels;

    /// Uniform gravity along −z for the whole mesh (brain density everywhere).
    fn assemble_gravity(mesh: &TetMesh) -> Vec<f64> {
        assemble_body_force(mesh, gravity_load_density(BRAIN_DENSITY, standard_gravity()))
    }
    use brainshift_imaging::volume::{Dims, Spacing, Volume};
    use brainshift_mesh::{mesh_labeled_volume, MesherConfig};
    use brainshift_sparse::SolverOptions;

    fn column_mesh(nx: usize, nz: usize) -> TetMesh {
        let seg = Volume::from_fn(Dims::new(nx, nx, nz), Spacing::iso(1.0), |_, _, _| labels::BRAIN);
        mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable })
    }

    /// The column's base fixed, everything above it free.
    fn fixed_base(mesh: &TetMesh) -> DirichletBcs {
        let mut bcs = DirichletBcs::new();
        for (n, p) in mesh.nodes.iter().enumerate() {
            if p.z < 1e-9 {
                bcs.set(n, Vec3::ZERO);
            }
        }
        bcs
    }

    /// Nodal z-displacements of the column under `loads`.
    fn sag(mesh: &TetMesh, loads: &[f64]) -> Vec<f64> {
        let cfg = FemSolveConfig {
            options: SolverOptions { tolerance: 1e-10, max_iterations: 5000, ..Default::default() },
            ..Default::default()
        };
        let sol = solve_with_loads(mesh, &MaterialTable::homogeneous(), &fixed_base(mesh), loads, &cfg)
            .expect("consistent loads and BCs");
        assert!(sol.stats.converged());
        sol.displacements.iter().map(|u| u.z).collect()
    }

    #[test]
    fn total_load_equals_weight() {
        let mesh = column_mesh(3, 5);
        let f = assemble_gravity(&mesh);
        let total_z: f64 = (0..mesh.num_nodes()).map(|n| f[3 * n + 2]).sum();
        let w = gravity_load_density(BRAIN_DENSITY, standard_gravity());
        let expect = w.z * (0..mesh.num_tets()).map(|t| mesh.tet_volume(t)).sum::<f64>();
        assert!((total_z - expect).abs() < 1e-9 * expect.abs());
        // x/y components vanish.
        let total_x: f64 = (0..mesh.num_nodes()).map(|n| f[3 * n]).sum();
        assert!(total_x.abs() < 1e-12);
    }

    #[test]
    fn unit_conversion() {
        let w = gravity_load_density(1000.0, Vec3::new(0.0, 0.0, -10.0));
        // 1000 kg/m³ × 10 m/s² = 10⁴ N/m³ = 10 Pa/mm.
        assert!((w.z + 10.0).abs() < 1e-12);
    }

    #[test]
    fn gravity_sag_of_fixed_base_column() {
        // Column fixed at z = 0, gravity pulls down: displacement is
        // downward, grows with height, and the top deflection is of the
        // analytic order u = ρg H² / (2 E_c) with the constrained modulus.
        let nz = 8;
        let mesh = column_mesh(3, nz);
        let sag_z = sag(&mesh, &assemble_gravity(&mesh));
        // Monotone downward sag with height along the centre column.
        let mut prev = 0.0;
        for (n, p) in mesh.nodes.iter().enumerate() {
            if (p.x - 1.0).abs() < 1e-9 && (p.y - 1.0).abs() < 1e-9 {
                let uz = sag_z[n];
                assert!(uz <= 1e-12, "node at z={} moved up: {uz}", p.z);
                if p.z > 0.0 {
                    assert!(uz <= prev + 1e-12, "sag not monotone at z={}", p.z);
                    prev = uz;
                }
            }
        }
        // Order-of-magnitude check vs 1-D constrained compression:
        // u_top ≈ ρg H² / (2 (λ+2μ)).
        let mat = crate::material::Material::brain();
        let w = gravity_load_density(BRAIN_DENSITY, standard_gravity()).z.abs();
        let h = nz as f64;
        let analytic = w * h * h / (2.0 * (mat.lame_lambda() + 2.0 * mat.lame_mu()));
        let top = mesh
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, p)| (p.z - h).abs() < 1e-9)
            .map(|(n, _)| -sag_z[n])
            .fold(0.0f64, f64::max);
        assert!(
            top > 0.2 * analytic && top < 5.0 * analytic,
            "top sag {top} vs analytic order {analytic}"
        );
    }

    #[test]
    fn heavier_tissue_sags_more() {
        let mesh = column_mesh(3, 6);
        let solve_for = |rho: f64| -> f64 {
            let w = gravity_load_density(rho, standard_gravity());
            sag(&mesh, &assemble_body_force(&mesh, w)).iter().fold(0.0f64, |m, &v| m.max(-v))
        };
        let sag1 = solve_for(1000.0);
        let sag2 = solve_for(2000.0);
        // Linear problem: doubling the density doubles the sag.
        assert!((sag2 / sag1 - 2.0).abs() < 1e-6, "{sag1} vs {sag2}");
    }
}
