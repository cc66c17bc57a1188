//! External force fields driving the active surface.
//!
//! "This is done iteratively by applying forces derived from the
//! volumetric data to an elastic membrane model of the surface. The
//! derived forces are a decreasing function of the data gradients, so as
//! to be minimized at the edges of objects in the volume. To increase
//! robustness and the convergence rate of the process, we have included
//! prior knowledge about the expected gray level and gradients of the
//! objects being matched." (paper §2.1.1, citing Ferrant et al.)

use brainshift_imaging::dtransform::signed_distance_transform;
use brainshift_imaging::filter::{gaussian_smooth, gradient, gradient_planes};
use brainshift_imaging::{DisplacementField, Vec3, Volume};

/// Provides the external force pulling a surface vertex toward the target
/// object boundary, evaluated at a world-coordinate point.
pub trait ExternalForce: Sync {
    /// Force vector (arbitrary units, saturating near the boundary) at
    /// world point `p`.
    fn force(&self, p: Vec3) -> Vec3;

    /// Scalar "how far from the boundary" measure at `p` (0 on the
    /// boundary), used for convergence checks.
    fn boundary_distance(&self, p: Vec3) -> f64;
}

/// Force derived from the signed distance transform of a target mask: the
/// steepest descent of `½ φ²`, pointing toward the zero level set from
/// both sides. This is the robust potential used for the brain surface,
/// where the segmentation already identifies the target region.
///
/// The gradient field is precomputed once at construction and stored as
/// three flat `f32` arrays; the interior fast path samples φ and ∇φ in
/// one fused trilinear pass (the eight corner weights are shared), which
/// is the dominant operation of the active-surface iteration.
pub struct DistanceForce {
    /// Signed distance (mm).
    phi: Volume<f32>,
    /// Gradient components of φ, voxel-index aligned with `phi`.
    gx: Vec<f32>,
    gy: Vec<f32>,
    gz: Vec<f32>,
    /// Gain limiting the per-step pull (mm).
    pub max_step: f64,
}

impl DistanceForce {
    /// Build from a binary target mask (true = inside target object).
    pub fn from_mask(mask: &Volume<bool>, max_step: f64) -> DistanceForce {
        // The distance transform is already in millimetres (anisotropic
        // spacing honored).
        let phi = signed_distance_transform(mask);
        let [gx, gy, gz] = gradient_planes(&phi);
        DistanceForce { phi, gx, gy, gz, max_step }
    }

    /// φ and ∇φ at continuous voxel coordinates, trilinearly interpolated
    /// with shared corner weights on the interior fast path. Boundary and
    /// outside samples fall back to the per-field rules: φ uses per-corner
    /// clamping (fully outside ⇒ 1e3), ∇φ clamps the sample point.
    fn sample_phi_grad(&self, p_vox: Vec3) -> (f64, Vec3) {
        let d = self.phi.dims();
        let x0 = p_vox.x.floor();
        let y0 = p_vox.y.floor();
        let z0 = p_vox.z.floor();
        let interior = x0 >= 0.0
            && y0 >= 0.0
            && z0 >= 0.0
            && x0 + 1.0 <= d.nx as f64 - 1.0
            && y0 + 1.0 <= d.ny as f64 - 1.0
            && z0 + 1.0 <= d.nz as f64 - 1.0;
        if interior {
            let (xi, yi, zi) = (x0 as usize, y0 as usize, z0 as usize);
            let fx = p_vox.x - x0;
            let fy = p_vox.y - y0;
            let fz = p_vox.z - z0;
            let base = d.index(xi, yi, zi);
            let sx = 1usize;
            let sy = d.nx;
            let sz = d.nx * d.ny;
            let phi = self.phi.data();
            let mut acc_p = 0.0f64;
            let mut acc_g = Vec3::ZERO;
            for (oz, wz) in [(0usize, 1.0 - fz), (sz, fz)] {
                for (oy, wy) in [(0usize, 1.0 - fy), (sy, fy)] {
                    let wzy = wz * wy;
                    for (ox, wx) in [(0usize, 1.0 - fx), (sx, fx)] {
                        let w = wzy * wx;
                        if w == 0.0 {
                            continue;
                        }
                        let i = base + oz + oy + ox;
                        acc_p += w * phi[i] as f64;
                        acc_g.x += w * self.gx[i] as f64;
                        acc_g.y += w * self.gy[i] as f64;
                        acc_g.z += w * self.gz[i] as f64;
                    }
                }
            }
            return (acc_p, acc_g);
        }
        let phi = brainshift_imaging::interp::sample_trilinear(&self.phi, p_vox, 1e3) as f64;
        (phi, self.sample_grad_clamped(p_vox))
    }

    /// ∇φ with the sample point clamped into the grid (the behaviour of
    /// `DisplacementField::sample`, kept for boundary/outside points).
    fn sample_grad_clamped(&self, p_vox: Vec3) -> Vec3 {
        let d = self.phi.dims();
        let cx = p_vox.x.clamp(0.0, d.nx as f64 - 1.0);
        let cy = p_vox.y.clamp(0.0, d.ny as f64 - 1.0);
        let cz = p_vox.z.clamp(0.0, d.nz as f64 - 1.0);
        let x0 = cx.floor() as usize;
        let y0 = cy.floor() as usize;
        let z0 = cz.floor() as usize;
        let x1 = (x0 + 1).min(d.nx - 1);
        let y1 = (y0 + 1).min(d.ny - 1);
        let z1 = (z0 + 1).min(d.nz - 1);
        let fx = cx - x0 as f64;
        let fy = cy - y0 as f64;
        let fz = cz - z0 as f64;
        let mut acc = Vec3::ZERO;
        for (iz, wz) in [(z0, 1.0 - fz), (z1, fz)] {
            for (iy, wy) in [(y0, 1.0 - fy), (y1, fy)] {
                for (ix, wx) in [(x0, 1.0 - fx), (x1, fx)] {
                    let w = wx * wy * wz;
                    if w != 0.0 {
                        let i = d.index(ix, iy, iz);
                        acc.x += w * self.gx[i] as f64;
                        acc.y += w * self.gy[i] as f64;
                        acc.z += w * self.gz[i] as f64;
                    }
                }
            }
        }
        acc
    }

    fn sample_phi(&self, p_vox: Vec3) -> f64 {
        brainshift_imaging::interp::sample_trilinear(&self.phi, p_vox, 1e3) as f64
    }
}

impl ExternalForce for DistanceForce {
    fn force(&self, p: Vec3) -> Vec3 {
        let sp = self.phi.spacing();
        let p_vox = Vec3::new(p.x / sp.dx, p.y / sp.dy, p.z / sp.dz);
        let (phi, g) = self.sample_phi_grad(p_vox);
        // Descend ½φ²: step = −φ ∇φ, saturated to max_step.
        let raw = -(g * phi);
        let n = raw.norm();
        if n > self.max_step {
            raw * (self.max_step / n)
        } else {
            raw
        }
    }

    fn boundary_distance(&self, p: Vec3) -> f64 {
        let sp = self.phi.spacing();
        let p_vox = Vec3::new(p.x / sp.dx, p.y / sp.dy, p.z / sp.dz);
        self.sample_phi(p_vox).abs()
    }
}

/// Edge-seeking force from image gradients with a gray-level prior (the
/// paper's formulation): the potential is low where the gradient magnitude
/// is high *and* the local intensity matches the expected gray level of
/// the object boundary.
pub struct EdgeForce {
    potential: Volume<f32>,
    grad: DisplacementField,
    /// Saturation of the force magnitude (mm per step).
    pub max_step: f64,
}

impl EdgeForce {
    /// Build from an intensity image. `expected_gray` and `gray_tolerance`
    /// encode the prior: edges at implausible intensities are penalized.
    pub fn from_image(
        image: &Volume<f32>,
        smoothing_sigma: f64,
        expected_gray: f32,
        gray_tolerance: f32,
        max_step: f64,
    ) -> EdgeForce {
        let smoothed = gaussian_smooth(image, smoothing_sigma);
        let g = gradient(&smoothed);
        let gmax = g.iter().map(|v| v.norm()).fold(1e-12, f64::max);
        // Potential in [0,1]: decreasing in |∇I| (paper), increasing with
        // gray-level mismatch (prior).
        let d = smoothed.dims();
        let mut pot = Volume::zeros(d, smoothed.spacing());
        for idx in 0..d.len() {
            let gm = g[idx].norm() / gmax;
            let gray = smoothed.data()[idx];
            let mismatch = ((gray - expected_gray) / gray_tolerance).powi(2).min(4.0) as f64;
            pot.data_mut()[idx] = ((1.0 - gm) + 0.25 * mismatch) as f32;
        }
        let pot = gaussian_smooth(&pot, 1.0);
        let pg = gradient(&pot);
        let mut grad = DisplacementField::zeros(d, pot.spacing());
        grad.data_mut().copy_from_slice(&pg);
        EdgeForce { potential: pot, grad, max_step }
    }
}

impl ExternalForce for EdgeForce {
    fn force(&self, p: Vec3) -> Vec3 {
        let sp = self.potential.spacing();
        let p_vox = Vec3::new(p.x / sp.dx, p.y / sp.dy, p.z / sp.dz);
        let g = self.grad.sample(p_vox);
        let raw = -g * 50.0; // descend the potential
        let n = raw.norm();
        if n > self.max_step {
            raw * (self.max_step / n)
        } else {
            raw
        }
    }

    fn boundary_distance(&self, p: Vec3) -> f64 {
        let sp = self.potential.spacing();
        let p_vox = Vec3::new(p.x / sp.dx, p.y / sp.dy, p.z / sp.dz);
        brainshift_imaging::interp::sample_trilinear(&self.potential, p_vox, 1.0) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brainshift_imaging::volume::{Dims, Spacing};

    fn sphere_mask(r: f64) -> Volume<bool> {
        Volume::from_fn(Dims::new(24, 24, 24), Spacing::iso(1.0), move |x, y, z| {
            let p = Vec3::new(x as f64 - 12.0, y as f64 - 12.0, z as f64 - 12.0);
            p.norm() < r
        })
    }

    #[test]
    fn distance_force_points_toward_boundary() {
        let f = DistanceForce::from_mask(&sphere_mask(6.0), 2.0);
        let c = Vec3::new(12.0, 12.0, 12.0);
        // Outside: force points inward (toward the sphere).
        let p_out = c + Vec3::new(10.0, 0.0, 0.0);
        let fo = f.force(p_out);
        assert!(fo.x < 0.0, "outside force should point inward: {fo:?}");
        // Inside near centre: force points outward.
        let p_in = c + Vec3::new(2.0, 0.0, 0.0);
        let fi = f.force(p_in);
        assert!(fi.x > 0.0, "inside force should point outward: {fi:?}");
    }

    #[test]
    fn distance_force_small_on_boundary() {
        let f = DistanceForce::from_mask(&sphere_mask(6.0), 2.0);
        let on = Vec3::new(12.0 + 6.0, 12.0, 12.0);
        let far = Vec3::new(12.0 + 11.0, 12.0, 12.0);
        assert!(f.boundary_distance(on) < 1.3);
        assert!(f.boundary_distance(far) > 3.0);
    }

    #[test]
    fn fused_sample_matches_separate_paths_inside_grid() {
        let f = DistanceForce::from_mask(&sphere_mask(6.0), 100.0);
        for p in [
            Vec3::new(12.3, 11.7, 12.9),
            Vec3::new(4.5, 18.2, 9.1),
            Vec3::new(0.25, 0.75, 0.5),
            Vec3::new(22.0, 22.0, 22.0),
        ] {
            // The scalar path rounds through f32; the fused path keeps
            // its f64 accumulator, so compare at f32 precision.
            let (phi, g) = f.sample_phi_grad(p);
            assert!((phi - f.sample_phi(p)).abs() < 1e-4, "phi mismatch at {p:?}");
            let gs = f.sample_grad_clamped(p);
            assert!((g - gs).norm() < 1e-9, "grad mismatch at {p:?}");
        }
    }

    #[test]
    fn force_finite_outside_grid() {
        let f = DistanceForce::from_mask(&sphere_mask(6.0), 1.5);
        for p in [Vec3::new(-10.0, 12.0, 12.0), Vec3::new(12.0, 12.0, 200.0)] {
            let v = f.force(p);
            assert!(v.x.is_finite() && v.y.is_finite() && v.z.is_finite());
            assert!(v.norm() <= 1.5 + 1e-9);
        }
    }

    #[test]
    fn force_saturates_at_max_step() {
        let f = DistanceForce::from_mask(&sphere_mask(4.0), 1.5);
        for r in [9.0, 10.0, 11.0] {
            let p = Vec3::new(12.0 + r, 12.0, 12.0);
            assert!(f.force(p).norm() <= 1.5 + 1e-9);
        }
    }

    #[test]
    fn edge_force_descends_toward_edge() {
        // Step edge at x = 12 with known gray levels.
        let img = Volume::from_fn(Dims::new(24, 24, 24), Spacing::iso(1.0), |x, _, _| {
            if x < 12 {
                100.0
            } else {
                0.0
            }
        });
        let f = EdgeForce::from_image(&img, 1.0, 50.0, 50.0, 1.0);
        // The potential at the edge must be below the potential away from
        // it, so the boundary_distance proxy decreases toward x=12.
        let at_edge = f.boundary_distance(Vec3::new(12.0, 12.0, 12.0));
        let off_edge = f.boundary_distance(Vec3::new(4.0, 12.0, 12.0));
        assert!(at_edge < off_edge, "{at_edge} vs {off_edge}");
    }
}
