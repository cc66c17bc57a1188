//! Linear tetrahedral elements.
//!
//! The paper (Eq. 2–3) uses tetrahedra with linear interpolation of the
//! displacement field; shape-function coefficients follow Zienkiewicz &
//! Taylor (the paper's ref [26], "pages 91–92"). The element stiffness is
//! `Kᵉ = V Bᵀ D B` with the constant strain-displacement matrix `B`.

use crate::error::FemError;
use crate::material::Material;
use brainshift_imaging::{Mat3, Vec3};

/// Geometry-derived quantities of one linear tetrahedron: shape-function
/// gradients (constant over the element) and volume.
#[derive(Debug, Clone, Copy)]
pub struct TetShape {
    /// ∇Nᵢ for each of the 4 nodes (1/mm).
    pub grads: [Vec3; 4],
    /// Element volume (mm³), positive for valid orientation.
    pub volume: f64,
}

impl TetShape {
    /// Compute gradients and volume from vertex positions. Returns
    /// [`FemError::DegenerateElement`] for (near-)zero-volume elements.
    pub fn new(p: [Vec3; 4]) -> Result<TetShape, FemError> {
        let e1 = p[1] - p[0];
        let e2 = p[2] - p[0];
        let e3 = p[3] - p[0];
        let volume = e1.cross(e2).dot(e3) / 6.0;
        if volume.abs() < 1e-30 {
            return Err(FemError::DegenerateElement { volume });
        }
        // Barycentric gradient: [λ1 λ2 λ3]ᵀ = M⁻¹ (x − p0), with M columns
        // e1, e2, e3; so ∇λᵢ is the i-th ROW of M⁻¹.
        let m = Mat3::from_rows([e1.x, e2.x, e3.x], [e1.y, e2.y, e3.y], [e1.z, e2.z, e3.z]);
        let inv = m.inverse().ok_or(FemError::DegenerateElement { volume })?;
        let g1 = Vec3::new(inv.m[0][0], inv.m[0][1], inv.m[0][2]);
        let g2 = Vec3::new(inv.m[1][0], inv.m[1][1], inv.m[1][2]);
        let g3 = Vec3::new(inv.m[2][0], inv.m[2][1], inv.m[2][2]);
        let g0 = -(g1 + g2 + g3);
        Ok(TetShape { grads: [g0, g1, g2, g3], volume })
    }

    /// Shape function values at point `x` (barycentric coordinates w.r.t.
    /// the original vertices); requires the vertex positions again.
    pub fn shape_values(p: [Vec3; 4], x: Vec3) -> Option<[f64; 4]> {
        brainshift_mesh::tetmesh::barycentric_in(p[0], p[1], p[2], p[3], x)
    }
}

/// Row-major 12×12 element stiffness matrix, ordered
/// `[u0x u0y u0z u1x ... u3z]`.
pub type ElementStiffness = [[f64; 12]; 12];

/// Element stiffness via the closed-form isotropic expression
/// `(K_ij)_ab = V (λ gᵢ_a gⱼ_b + μ gᵢ_b gⱼ_a + μ δ_ab gᵢ·gⱼ)` — equivalent
/// to `V Bᵀ D B` (validated against that product in tests) and what
/// the assembly hot loop uses.
pub fn stiffness_isotropic(shape: &TetShape, mat: &Material) -> ElementStiffness {
    let lambda = mat.lame_lambda();
    let mu = mat.lame_mu();
    let v = shape.volume;
    let mut k = [[0.0; 12]; 12];
    for i in 0..4 {
        let gi = shape.grads[i];
        for j in 0..4 {
            let gj = shape.grads[j];
            let gdot = gi.dot(gj);
            let gi_a = [gi.x, gi.y, gi.z];
            let gj_b = [gj.x, gj.y, gj.z];
            for a in 0..3 {
                for b in 0..3 {
                    let mut val = lambda * gi_a[a] * gj_b[b] + mu * gi_a[b] * gj_b[a];
                    if a == b {
                        val += mu * gdot;
                    }
                    k[3 * i + a][3 * j + b] = v * val;
                }
            }
        }
    }
    k
}

/// Work units (effective flops) to build and scatter one element
/// stiffness in the modeled 1999 implementation — includes the generic
/// Bᵀ D B product, interpolation bookkeeping and the PETSc
/// MatSetValues-style scatter overhead the paper's code paid. Used by the
/// simulated-cluster cost model; the constant matters less than its
/// *proportionality* to per-element work (calibrated against Figure 7's
/// absolute assembly times).
pub const FLOPS_PER_ELEMENT: f64 = 24_000.0;

#[cfg(test)]
mod tests {
    use super::*;

    /// The 6×6 isotropic elasticity matrix `D` linking engineering strain
    /// `[εxx εyy εzz γxy γyz γzx]` to stress (the paper's `σ = D ε`,
    /// Zienkiewicz & Taylor).
    fn elasticity_matrix(mat: &Material) -> [[f64; 6]; 6] {
        let l = mat.lame_lambda();
        let m = mat.lame_mu();
        let d = l + 2.0 * m;
        [
            [d, l, l, 0.0, 0.0, 0.0],
            [l, d, l, 0.0, 0.0, 0.0],
            [l, l, d, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, m, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, m, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, m],
        ]
    }

    /// Element stiffness via the generic `V Bᵀ D B` product with a 6×6
    /// elasticity matrix: the reference the closed form is checked against.
    fn stiffness_btdb(shape: &TetShape, d: &[[f64; 6]; 6]) -> ElementStiffness {
        // B is 6×12: strain = B u, engineering shear convention.
        let mut b = [[0.0f64; 12]; 6];
        for i in 0..4 {
            let g = shape.grads[i];
            let c = 3 * i;
            b[0][c] = g.x;
            b[1][c + 1] = g.y;
            b[2][c + 2] = g.z;
            b[3][c] = g.y;
            b[3][c + 1] = g.x;
            b[4][c + 1] = g.z;
            b[4][c + 2] = g.y;
            b[5][c] = g.z;
            b[5][c + 2] = g.x;
        }
        // K = V Bᵀ D B
        let mut db = [[0.0f64; 12]; 6];
        for r in 0..6 {
            for c in 0..12 {
                let mut acc = 0.0;
                for k2 in 0..6 {
                    acc += d[r][k2] * b[k2][c];
                }
                db[r][c] = acc;
            }
        }
        let mut k = [[0.0f64; 12]; 12];
        for r in 0..12 {
            for c in 0..12 {
                let mut acc = 0.0;
                for k2 in 0..6 {
                    acc += b[k2][r] * db[k2][c];
                }
                k[r][c] = shape.volume * acc;
            }
        }
        k
    }

    fn unit_tet() -> [Vec3; 4] {
        [
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ]
    }

    #[test]
    fn shape_gradients_sum_to_zero() {
        let s = TetShape::new(unit_tet()).unwrap();
        let sum = s.grads[0] + s.grads[1] + s.grads[2] + s.grads[3];
        assert!(sum.norm() < 1e-14);
        assert!((s.volume - 1.0 / 6.0).abs() < 1e-15);
    }

    #[test]
    fn gradients_reproduce_linear_field() {
        // For u(x) = c·x, the FE interpolation Σ Nᵢ(x) u(pᵢ) is exact, so
        // Σ ∇Nᵢ (c·pᵢ) = c.
        let p = [
            Vec3::new(0.2, 0.1, 0.0),
            Vec3::new(1.3, 0.2, 0.1),
            Vec3::new(0.1, 1.1, 0.3),
            Vec3::new(0.4, 0.2, 1.2),
        ];
        let s = TetShape::new(p).unwrap();
        let c = Vec3::new(0.7, -1.3, 2.1);
        let mut grad = Vec3::ZERO;
        for i in 0..4 {
            grad += s.grads[i] * c.dot(p[i]);
        }
        assert!((grad - c).norm() < 1e-12, "{grad:?}");
    }

    #[test]
    fn degenerate_tet_rejected() {
        let p = [
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(2.0, 0.0, 0.0),
            Vec3::new(3.0, 0.0, 0.0),
        ];
        assert!(matches!(TetShape::new(p), Err(FemError::DegenerateElement { .. })));
    }

    #[test]
    fn stiffness_symmetric() {
        let s = TetShape::new(unit_tet()).unwrap();
        let k = stiffness_isotropic(&s, &Material::brain());
        for i in 0..12 {
            for j in 0..12 {
                assert!((k[i][j] - k[j][i]).abs() < 1e-9 * k[0][0].abs().max(1.0));
            }
        }
    }

    #[test]
    fn closed_form_matches_btdb() {
        let p = [
            Vec3::new(0.1, 0.0, 0.2),
            Vec3::new(1.2, 0.1, 0.0),
            Vec3::new(0.0, 1.4, 0.1),
            Vec3::new(0.3, 0.2, 1.1),
        ];
        let s = TetShape::new(p).unwrap();
        let mat = Material::new(2500.0, 0.4);
        let k1 = stiffness_isotropic(&s, &mat);
        let k2 = stiffness_btdb(&s, &elasticity_matrix(&mat));
        let scale = k1.iter().flatten().fold(0.0f64, |m, &v| m.max(v.abs()));
        for i in 0..12 {
            for j in 0..12 {
                assert!(
                    (k1[i][j] - k2[i][j]).abs() < 1e-10 * scale,
                    "({i},{j}): {} vs {}",
                    k1[i][j],
                    k2[i][j]
                );
            }
        }
    }

    #[test]
    fn rigid_translation_produces_zero_force() {
        // K u = 0 for a rigid-body translation.
        let s = TetShape::new(unit_tet()).unwrap();
        let k = stiffness_isotropic(&s, &Material::brain());
        let u = [1.0, 2.0, -0.5].repeat(4);
        for row in k.iter() {
            let f: f64 = row.iter().zip(&u).map(|(a, b)| a * b).sum();
            assert!(f.abs() < 1e-9, "{f}");
        }
    }

    #[test]
    fn rigid_rotation_produces_zero_force() {
        // Infinitesimal rotation u = ω × x is also in the null space.
        let p = unit_tet();
        let s = TetShape::new(p).unwrap();
        let k = stiffness_isotropic(&s, &Material::brain());
        let omega = Vec3::new(0.3, -0.2, 0.5);
        let mut u = [0.0; 12];
        for i in 0..4 {
            let r = omega.cross(p[i]);
            u[3 * i] = r.x;
            u[3 * i + 1] = r.y;
            u[3 * i + 2] = r.z;
        }
        for row in k.iter() {
            let f: f64 = row.iter().zip(&u).map(|(a, b)| a * b).sum();
            assert!(f.abs() < 1e-9, "{f}");
        }
    }

    #[test]
    fn stiffness_positive_semidefinite_on_random_vectors() {
        use rand::{Rng, SeedableRng};
        let s = TetShape::new(unit_tet()).unwrap();
        let k = stiffness_isotropic(&s, &Material::brain());
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let u: Vec<f64> = (0..12).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut ku = [0.0; 12];
            for i in 0..12 {
                ku[i] = k[i].iter().zip(&u).map(|(a, b)| a * b).sum();
            }
            let quad: f64 = u.iter().zip(&ku).map(|(a, b)| a * b).sum();
            assert!(quad >= -1e-9, "uᵀKu = {quad} < 0");
        }
    }

    #[test]
    fn scaling_volume_scales_stiffness() {
        let p = unit_tet();
        let s1 = TetShape::new(p).unwrap();
        let p2: [Vec3; 4] = [p[0] * 2.0, p[1] * 2.0, p[2] * 2.0, p[3] * 2.0];
        let s2 = TetShape::new(p2).unwrap();
        let k1 = stiffness_isotropic(&s1, &Material::brain());
        let k2 = stiffness_isotropic(&s2, &Material::brain());
        // K ∝ V × |∇N|² → scales linearly with edge length (2×).
        assert!((k2[0][0] / k1[0][0] - 2.0).abs() < 1e-9);
    }
}
