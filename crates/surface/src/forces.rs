//! External force fields driving the active surface.
//!
//! "This is done iteratively by applying forces derived from the
//! volumetric data to an elastic membrane model of the surface. The
//! derived forces are a decreasing function of the data gradients, so as
//! to be minimized at the edges of objects in the volume. To increase
//! robustness and the convergence rate of the process, we have included
//! prior knowledge about the expected gray level and gradients of the
//! objects being matched." (paper §2.1.1, citing Ferrant et al.)

use crate::band::{Band, SurfaceError};
use brainshift_imaging::dtransform::{banded_signed_distance_transform, signed_distance_transform};
use brainshift_imaging::filter::{gaussian_smooth, gradient, gradient_planes};
use brainshift_imaging::{Dims, DisplacementField, Vec3, Volume};
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

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
///
/// A force built on a [`Band`] — for a target that was classified only
/// on that band around a reference boundary — computes φ and ∇φ on the
/// band alone and is guarded: every sample checks that its trilinear
/// cell lies where φ and ∇φ are provably those of the whole-volume
/// target, and raises a flag ([`DistanceForce::left_exact_region`]) when
/// it does not.
pub struct DistanceForce {
    /// Signed distance (mm).
    phi: Volume<f32>,
    /// Gradient components of φ, voxel-index aligned with `phi`.
    gx: Vec<f32>,
    gy: Vec<f32>,
    gz: Vec<f32>,
    /// Gain limiting the per-step pull (mm).
    pub max_step: f64,
    /// Per trilinear cell, indexed by its clamped lower corner: 1 when
    /// the guard proved φ and ∇φ exact at all eight corners. `None` when
    /// unguarded (every cell is).
    exact_cells: Option<Vec<u8>>,
    /// Raised, never lowered, by a sample whose cell is not exact.
    left_exact: AtomicBool,
}

impl DistanceForce {
    /// Build from a binary target mask (true = inside target object),
    /// over the whole volume when `band` is `None`.
    ///
    /// On a `band` of half-width *B* around a reference boundary (|φ_ref|
    /// per voxel), φ and ∇φ are computed on the band's voxels only and
    /// every other voxel gets φ = ±*B* (the mask's sign) and ∇φ = 0, and
    /// the force is guarded. A voxel is *exact* when |φ| + |φ_ref| < *B*
    /// holds at it and at each of its in-grid 6-neighbours. At such a
    /// voxel v, φ and ∇φ are the same bits as those of the whole-volume
    /// transform of a target a whole-volume classification gives: the
    /// exact distance transform makes φ(v) a function of the target
    /// voxels within |φ(v)| of v alone, and every such voxel u has
    /// |φ_ref(u)| ≤ |φ_ref(v)| + |u − v| < *B*, so lies in the band,
    /// where both classifications agree and the banded transform reaches
    /// v from u through the band (see
    /// [`banded_signed_distance_transform`]); the banded |φ| is never
    /// below the whole-volume one, so the inequality holds on it exactly
    /// where it holds on the whole-volume φ; the central difference at v
    /// reads only v and its 6-neighbours. A sample whose trilinear cell
    /// (clamped into the grid as the gradient sampler clamps it, which
    /// covers the cell the φ sampler reads) holds a voxel that is not
    /// exact raises [`Self::left_exact_region`]. A mask on a grid other
    /// than the band's is an error.
    pub fn from_mask(
        mask: &Volume<bool>,
        band: Option<&Band>,
        max_step: f64,
    ) -> Result<DistanceForce, SurfaceError> {
        // The distance transform is already in millimetres (anisotropic
        // spacing honored).
        let Some(band) = band else {
            let phi = signed_distance_transform(mask);
            let grad = gradient_planes(&phi, None);
            return Ok(DistanceForce::new(phi, grad, max_step, None));
        };
        if band.dims() != mask.dims() {
            return Err(SurfaceError::GridMismatch { band: band.dims(), mask: mask.dims() });
        }
        let phi = banded_signed_distance_transform(mask, band.member(), band.width());
        let grad = gradient_planes(&phi, Some(band.member()));
        let cells = exact_cells(&phi, band);
        Ok(DistanceForce::new(phi, grad, max_step, Some(cells)))
    }

    fn new(phi: Volume<f32>, [gx, gy, gz]: [Vec<f32>; 3], max_step: f64, exact_cells: Option<Vec<u8>>) -> Self {
        DistanceForce { phi, gx, gy, gz, max_step, exact_cells, left_exact: AtomicBool::new(false) }
    }

    /// The signed distance φ (mm) of the target mask: negative inside,
    /// positive outside.
    pub fn phi(&self) -> &Volume<f32> {
        &self.phi
    }

    /// ∇φ as the x, y and z components, voxel-aligned with [`Self::phi`].
    pub fn grad(&self) -> [&[f32]; 3] {
        [&self.gx, &self.gy, &self.gz]
    }

    /// Per trilinear cell, indexed by its lower corner: 1 when all eight
    /// corners are exact (see [`Self::from_mask`]). `None` for a force
    /// built without a band.
    pub fn exact_cells(&self) -> Option<&[u8]> {
        self.exact_cells.as_deref()
    }

    /// True when some sample read a cell outside the exact region: the
    /// evolution it drove may differ from the whole-volume one. Always
    /// false for an unguarded force.
    pub fn left_exact_region(&self) -> bool {
        self.left_exact.load(Ordering::Relaxed)
    }

    /// Flag a sample whose trilinear cell, given by its clamped lower
    /// corner, is not exact. The flag is written only on a violation, so
    /// a guarded sample on the exact region costs one byte load.
    fn check_cell(&self, lower: usize) {
        if let Some(cells) = &self.exact_cells {
            if cells[lower] == 0 {
                self.left_exact.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Index of the lower corner of the trilinear cell at continuous
    /// voxel coordinates `p_vox`, the point clamped into the grid first.
    fn clamped_lower(&self, p_vox: Vec3) -> usize {
        let d = self.phi.dims();
        let lo = |p: f64, n: usize| p.clamp(0.0, n as f64 - 1.0).floor() as usize;
        d.index(lo(p_vox.x, d.nx), lo(p_vox.y, d.ny), lo(p_vox.z, d.nz))
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
            self.check_cell(base);
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
        self.check_cell(self.clamped_lower(p_vox));
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
        self.check_cell(self.clamped_lower(p_vox));
        self.sample_phi(p_vox).abs()
    }
}

/// The exact cells of a force built on `band` (see
/// [`DistanceForce::from_mask`]): 1 for a trilinear cell whose eight
/// corners are exact, indexed by its lower corner.
fn exact_cells(phi: &Volume<f32>, band: &Band) -> Vec<u8> {
    let d = phi.dims();
    // The stored distances are rounded to f32; a relative slack of 1e-6
    // (several ulps) keeps the inequality true of the exact ones. Off the
    // band |φ| = B and |φ_ref| > B, so it fails there.
    let limit = f64::from(band.width()) / (1.0 + 1e-6);
    let (phi, reference, nx) = (phi.data(), band.distance(), d.nx);
    let ok = row_map(d, |y, z, out| {
        let i = d.index(0, y, z);
        let rows = phi[i..i + nx].iter().zip(&reference[i..i + nx]);
        for (o, (&p, &r)) in out.iter_mut().zip(rows) {
            *o = u8::from(f64::from(p.abs()) + f64::from(r) < limit);
        }
    });
    fn row(mask: &[u8], d: Dims, y: usize, z: usize) -> &[u8] {
        &mask[d.index(0, y, z)..][..d.nx]
    }
    // Exact voxels: `ok` at the voxel and its in-grid 6-neighbours (a
    // neighbour off the grid is replaced by the voxel itself).
    let exact = row_map(d, |y, z, out| {
        let c = row(&ok, d, y, z);
        let across = [
            row(&ok, d, y.saturating_sub(1), z),
            row(&ok, d, (y + 1).min(d.ny - 1), z),
            row(&ok, d, y, z.saturating_sub(1)),
            row(&ok, d, y, (z + 1).min(d.nz - 1)),
        ];
        for (x, o) in out.iter_mut().enumerate() {
            let along = c[x] & c[x.saturating_sub(1)] & c[(x + 1).min(nx - 1)];
            *o = across.iter().fold(along, |a, r| a & r[x]);
        }
    });
    drop(ok);
    // Exact cells: all eight corners exact, the upper corner clamped into
    // the grid as the samplers clamp it.
    row_map(d, |y, z, out| {
        let (y1, z1) = ((y + 1).min(d.ny - 1), (z + 1).min(d.nz - 1));
        let corners = [row(&exact, d, y, z), row(&exact, d, y1, z), row(&exact, d, y, z1), row(&exact, d, y1, z1)];
        for (x, o) in out.iter_mut().enumerate() {
            let x1 = (x + 1).min(nx - 1);
            *o = corners.iter().fold(1, |a, r| a & r[x] & r[x1]);
        }
    })
}

/// A voxel-aligned byte mask on grid `d`, filled one x-row at a time by
/// `f(y, z, row)`, in parallel over z-slabs.
fn row_map(d: Dims, f: impl Fn(usize, usize, &mut [u8]) + Sync) -> Vec<u8> {
    let mut mask = vec![0u8; d.len()];
    if d.nx * d.ny == 0 {
        return mask;
    }
    mask.par_chunks_mut(d.nx * d.ny).enumerate().for_each(|(z, plane)| {
        for (y, out) in plane.chunks_mut(d.nx).enumerate() {
            f(y, z, out);
        }
    });
    mask
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
        let f = DistanceForce::from_mask(&sphere_mask(6.0), None, 2.0).unwrap();
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
        let f = DistanceForce::from_mask(&sphere_mask(6.0), None, 2.0).unwrap();
        let on = Vec3::new(12.0 + 6.0, 12.0, 12.0);
        let far = Vec3::new(12.0 + 11.0, 12.0, 12.0);
        assert!(f.boundary_distance(on) < 1.3);
        assert!(f.boundary_distance(far) > 3.0);
    }

    #[test]
    fn fused_sample_matches_separate_paths_inside_grid() {
        let f = DistanceForce::from_mask(&sphere_mask(6.0), None, 100.0).unwrap();
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
    fn a_banded_force_flags_only_samples_that_leave_the_exact_region() {
        let whole = DistanceForce::from_mask(&sphere_mask(6.0), None, 2.0).unwrap();
        let reference = DistanceForce::from_mask(&sphere_mask(7.0), None, 2.0).unwrap();
        let band = Band::new(reference.phi(), 8.0);
        let f = DistanceForce::from_mask(&sphere_mask(6.0), Some(&band), 2.0).unwrap();
        let c = Vec3::new(12.0, 12.0, 12.0);
        let near = c + Vec3::new(6.5, 0.5, 0.5);
        // A cell between the two boundaries (|φ| + |φ_ref| ≈ 2–4 mm) is
        // exact and samples as the whole-volume force does.
        assert_eq!((f.force(near), f.boundary_distance(near)), (whole.force(near), whole.boundary_distance(near)));
        whole.boundary_distance(c);
        assert!(whole.exact_cells().is_none() && !whole.left_exact_region(), "an unguarded force never raises the flag");
        assert!(!f.left_exact_region());
        // At the centre |φ| + |φ_ref| ≈ 13 mm: the band could have moved it.
        f.boundary_distance(c);
        assert!(f.left_exact_region());
        // The corner is off the band (|φ_ref| ≈ 13.8 mm): φ saturates at
        // +B with a zero gradient.
        let corner = f.phi().dims().index(0, 0, 0);
        assert!(!band.member().data()[corner]);
        assert_eq!(f.phi().data()[corner], 8.0);
        assert_eq!(f.grad().map(|g| g[corner]), [0.0; 3]);
    }

    #[test]
    fn a_mask_off_the_bands_grid_is_a_typed_error() {
        let reference = DistanceForce::from_mask(&sphere_mask(7.0), None, 2.0).unwrap();
        let band = Band::new(reference.phi(), 8.0);
        let small = Volume::filled(Dims::new(8, 8, 8), Spacing::iso(1.0), false);
        let err = DistanceForce::from_mask(&small, Some(&band), 2.0).err();
        assert_eq!(err, Some(SurfaceError::GridMismatch { band: band.dims(), mask: small.dims() }));
    }

    #[test]
    fn force_finite_outside_grid() {
        let f = DistanceForce::from_mask(&sphere_mask(6.0), None, 1.5).unwrap();
        for p in [Vec3::new(-10.0, 12.0, 12.0), Vec3::new(12.0, 12.0, 200.0)] {
            let v = f.force(p);
            assert!(v.x.is_finite() && v.y.is_finite() && v.z.is_finite());
            assert!(v.norm() <= 1.5 + 1e-9);
        }
    }

    #[test]
    fn force_saturates_at_max_step() {
        let f = DistanceForce::from_mask(&sphere_mask(4.0), None, 1.5).unwrap();
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
