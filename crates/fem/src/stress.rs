//! Post-processing: strain and stress recovery from the displacement
//! solution.
//!
//! The paper stops at the displacement field (its product is registration),
//! but the same FEM machinery yields per-element strain/stress — what its
//! clinical successors report for tissue-loading analysis, and a strong
//! correctness check for the solver (constant-strain patch fields must be
//! recovered exactly).

use crate::element::TetShape;
use crate::error::FemError;
use crate::material::MaterialTable;
use brainshift_imaging::Vec3;
use brainshift_mesh::TetMesh;
use rayon::prelude::*;

/// Engineering strain `[εxx, εyy, εzz, γxy, γyz, γzx]` of one element.
pub type Strain = [f64; 6];
/// Cauchy stress `[σxx, σyy, σzz, τxy, τyz, τzx]` (Pa).
pub type Stress = [f64; 6];

/// Constant strain of a linear tetrahedron under nodal displacements `u`.
pub fn element_strain(shape: &TetShape, u: &[Vec3; 4]) -> Strain {
    let mut e = [0.0f64; 6];
    for i in 0..4 {
        let g = shape.grads[i];
        let d = u[i];
        e[0] += g.x * d.x;
        e[1] += g.y * d.y;
        e[2] += g.z * d.z;
        e[3] += g.y * d.x + g.x * d.y;
        e[4] += g.z * d.y + g.y * d.z;
        e[5] += g.z * d.x + g.x * d.z;
    }
    e
}

/// Stress from strain through the isotropic constitutive law.
pub fn stress_from_strain(strain: &Strain, lambda: f64, mu: f64) -> Stress {
    let tr = strain[0] + strain[1] + strain[2];
    [
        lambda * tr + 2.0 * mu * strain[0],
        lambda * tr + 2.0 * mu * strain[1],
        lambda * tr + 2.0 * mu * strain[2],
        mu * strain[3],
        mu * strain[4],
        mu * strain[5],
    ]
}

/// Von Mises equivalent stress (Pa).
pub fn von_mises(s: &Stress) -> f64 {
    let d01 = s[0] - s[1];
    let d12 = s[1] - s[2];
    let d20 = s[2] - s[0];
    (0.5 * (d01 * d01 + d12 * d12 + d20 * d20) + 3.0 * (s[3] * s[3] + s[4] * s[4] + s[5] * s[5]))
        .sqrt()
}

/// Per-element post-processing results.
#[derive(Debug, Clone)]
pub struct ElementState {
    /// Engineering strain of the element.
    pub strain: Strain,
    /// Cauchy stress (Pa).
    pub stress: Stress,
    /// Von Mises equivalent stress (Pa).
    pub von_mises: f64,
    /// Volumetric strain (relative volume change).
    pub dilatation: f64,
}

/// Evaluate strain/stress in every element from nodal displacements.
/// Returns [`FemError::NodalFieldMismatch`] unless there is exactly one
/// displacement per mesh node.
pub fn evaluate_stress(
    mesh: &TetMesh,
    materials: &MaterialTable,
    displacements: &[Vec3],
) -> Result<Vec<ElementState>, FemError> {
    if displacements.len() != mesh.num_nodes() {
        return Err(FemError::NodalFieldMismatch {
            len: displacements.len(),
            nodes: mesh.num_nodes(),
        });
    }
    Ok((0..mesh.num_tets())
        .into_par_iter()
        .map(|t| {
            let tet = mesh.tets[t];
            let p = [
                mesh.nodes[tet[0]],
                mesh.nodes[tet[1]],
                mesh.nodes[tet[2]],
                mesh.nodes[tet[3]],
            ];
            let u = [
                displacements[tet[0]],
                displacements[tet[1]],
                displacements[tet[2]],
                displacements[tet[3]],
            ];
            let shape = TetShape::new(p).expect("degenerate element in stress evaluation");
            let strain = element_strain(&shape, &u);
            let mat = materials.of(mesh.tet_labels[t]);
            let stress = stress_from_strain(&strain, mat.lame_lambda(), mat.lame_mu());
            ElementState {
                strain,
                stress,
                von_mises: von_mises(&stress),
                dilatation: strain[0] + strain[1] + strain[2],
            }
        })
        .collect())
}

/// Summary statistics for reporting (e.g. peak tissue load).
#[derive(Debug, Clone)]
pub struct StressSummary {
    /// Largest von Mises stress over all elements (Pa).
    pub max_von_mises_pa: f64,
    /// Mean von Mises stress (Pa).
    pub mean_von_mises_pa: f64,
    /// Most-compressed element (most negative dilatation).
    pub min_dilatation: f64,
    /// Most-expanded element (largest positive dilatation).
    pub max_dilatation: f64,
}

/// Summarize per-element states.
pub fn summarize(states: &[ElementState]) -> StressSummary {
    let mut max_vm = 0.0f64;
    let mut sum_vm = 0.0;
    let mut min_d = f64::INFINITY;
    let mut max_d = f64::NEG_INFINITY;
    for s in states {
        max_vm = max_vm.max(s.von_mises);
        sum_vm += s.von_mises;
        min_d = min_d.min(s.dilatation);
        max_d = max_d.max(s.dilatation);
    }
    StressSummary {
        max_von_mises_pa: max_vm,
        mean_von_mises_pa: if states.is_empty() { 0.0 } else { sum_vm / states.len() as f64 },
        min_dilatation: if states.is_empty() { 0.0 } else { min_d },
        max_dilatation: if states.is_empty() { 0.0 } else { max_d },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::Material;
    use brainshift_imaging::labels;
    use brainshift_imaging::volume::{Dims, Spacing, Volume};
    use brainshift_mesh::{mesh_labeled_volume, MesherConfig};

    fn block_mesh(n: usize) -> TetMesh {
        let seg = Volume::from_fn(Dims::new(n, n, n), Spacing::iso(1.0), |_, _, _| labels::BRAIN);
        mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable })
    }

    #[test]
    fn wrong_node_count_is_a_typed_error() {
        let mesh = block_mesh(2);
        let disp = vec![Vec3::ZERO; mesh.num_nodes() + 1];
        let r = evaluate_stress(&mesh, &MaterialTable::homogeneous(), &disp);
        assert!(matches!(r, Err(FemError::NodalFieldMismatch { .. })));
    }

    #[test]
    fn rigid_motion_is_strain_free() {
        let mesh = block_mesh(3);
        let mats = MaterialTable::homogeneous();
        // Translation + infinitesimal rotation.
        let omega = Vec3::new(0.001, -0.002, 0.0005);
        let disp: Vec<Vec3> = mesh
            .nodes
            .iter()
            .map(|&p| Vec3::new(1.0, 2.0, 3.0) + omega.cross(p))
            .collect();
        let states = evaluate_stress(&mesh, &mats, &disp).expect("one displacement per node");
        for s in states {
            for e in s.strain {
                assert!(e.abs() < 1e-12, "{e}");
            }
            assert!(s.von_mises < 1e-8);
        }
    }

    #[test]
    fn uniaxial_stretch_recovers_analytic_stress() {
        // u = (αx, 0, 0): εxx = α, σxx = (λ+2μ)α, σyy = σzz = λα.
        let mesh = block_mesh(3);
        let mats = MaterialTable::homogeneous();
        let mat = Material::brain();
        let alpha = 0.01;
        let disp: Vec<Vec3> = mesh.nodes.iter().map(|&p| Vec3::new(alpha * p.x, 0.0, 0.0)).collect();
        let states = evaluate_stress(&mesh, &mats, &disp).expect("one displacement per node");
        let l = mat.lame_lambda();
        let m = mat.lame_mu();
        for s in &states {
            assert!((s.strain[0] - alpha).abs() < 1e-12);
            assert!((s.stress[0] - (l + 2.0 * m) * alpha).abs() < 1e-8);
            assert!((s.stress[1] - l * alpha).abs() < 1e-8);
            assert!((s.dilatation - alpha).abs() < 1e-12);
        }
    }

    #[test]
    fn simple_shear_von_mises() {
        // u = (γ z, 0, 0): γzx = γ, τzx = μγ, von Mises = √3 μγ.
        let mesh = block_mesh(3);
        let mats = MaterialTable::homogeneous();
        let mat = Material::brain();
        let gamma = 0.02;
        let disp: Vec<Vec3> = mesh.nodes.iter().map(|&p| Vec3::new(gamma * p.z, 0.0, 0.0)).collect();
        let states = evaluate_stress(&mesh, &mats, &disp).expect("one displacement per node");
        let expect = 3.0f64.sqrt() * mat.lame_mu() * gamma;
        for s in &states {
            assert!((s.von_mises - expect).abs() < 1e-6 * expect, "{} vs {expect}", s.von_mises);
            assert!(s.dilatation.abs() < 1e-12);
        }
    }

    #[test]
    fn summary_statistics() {
        let mesh = block_mesh(3);
        let mats = MaterialTable::homogeneous();
        let disp: Vec<Vec3> = mesh.nodes.iter().map(|&p| Vec3::new(0.01 * p.x, 0.0, 0.0)).collect();
        let states = evaluate_stress(&mesh, &mats, &disp).expect("one displacement per node");
        let sum = summarize(&states);
        assert!(sum.max_von_mises_pa > 0.0);
        assert!((sum.mean_von_mises_pa - sum.max_von_mises_pa).abs() < 1e-6 * sum.max_von_mises_pa);
        assert!((sum.min_dilatation - 0.01).abs() < 1e-9);
    }

    #[test]
    fn stress_scales_with_material_stiffness() {
        let mesh = block_mesh(2);
        let homo = MaterialTable::homogeneous();
        let mut stiff = MaterialTable::homogeneous();
        stiff.set(labels::BRAIN, Material::new(30_000.0, 0.45)); // 10× E
        let disp: Vec<Vec3> = mesh.nodes.iter().map(|&p| Vec3::new(0.01 * p.x, 0.0, 0.0)).collect();
        let s1 = summarize(&evaluate_stress(&mesh, &homo, &disp).expect("one displacement per node"));
        let s2 = summarize(&evaluate_stress(&mesh, &stiff, &disp).expect("one displacement per node"));
        assert!((s2.max_von_mises_pa / s1.max_von_mises_pa - 10.0).abs() < 1e-9);
    }
}
