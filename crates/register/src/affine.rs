//! Affine registration.
//!
//! Rigid alignment (the paper's choice) assumes both scans share voxel
//! geometry; gradient-coil miscalibration or different scanners introduce
//! scale/shear that only an affine model can absorb. This module extends
//! the transform family to 12 DOF — rotation · shear · scale + translation
//! — searched by the same multi-resolution coordinate descent over the
//! same (N)MI metric as the rigid model (`search.rs`).

use crate::mi_metric::MiConfig;
use crate::search::{grid_center, search_levels};
use brainshift_imaging::{Mat3, Vec3, Volume};

/// The affine search stops once every step is below this factor of its
/// initial value.
const MIN_STEP_FACTOR: f64 = 0.05;

/// A 12-DOF affine transform `T(x) = A (x − c) + c + t`.
#[derive(Debug, Clone, Copy)]
pub struct AffineTransform {
    /// The linear part `A = R · H · S` (rotation, shear, scale).
    pub matrix: Mat3,
    /// Translation `t`.
    pub translation: Vec3,
    /// Fixed centre `c`.
    pub center: Vec3,
}

impl AffineTransform {
    /// Identity about a centre.
    pub fn identity(center: Vec3) -> Self {
        AffineTransform { matrix: Mat3::IDENTITY, translation: Vec3::ZERO, center }
    }

    /// From the 12 parameters
    /// `[rx, ry, rz, sx, sy, sz, kxy, kxz, kyz, tx, ty, tz]`:
    /// Euler rotation, per-axis log-scales (so 0 = unit scale), three
    /// shear coefficients, translation.
    pub fn from_params(p: &[f64; 12], center: Vec3) -> Self {
        let r = Mat3::from_euler(p[0], p[1], p[2]);
        let scale = Mat3::from_rows(
            [p[3].exp(), 0.0, 0.0],
            [0.0, p[4].exp(), 0.0],
            [0.0, 0.0, p[5].exp()],
        );
        let shear = Mat3::from_rows([1.0, p[6], p[7]], [0.0, 1.0, p[8]], [0.0, 0.0, 1.0]);
        AffineTransform {
            matrix: r * shear * scale,
            translation: Vec3::new(p[9], p[10], p[11]),
            center,
        }
    }

    /// Apply to a point.
    #[inline]
    pub fn apply(&self, p: Vec3) -> Vec3 {
        self.matrix * (p - self.center) + self.center + self.translation
    }

    /// Inverse transform (None if the linear part is singular).
    pub fn inverse(&self) -> Option<AffineTransform> {
        let inv = self.matrix.inverse()?;
        Some(AffineTransform {
            matrix: inv,
            translation: -(inv * self.translation),
            center: self.center,
        })
    }

    /// Determinant of the linear part (volume-change factor).
    pub fn volume_factor(&self) -> f64 {
        self.matrix.determinant()
    }
}

/// Configuration of the affine registration.
#[derive(Debug, Clone)]
pub struct AffineRegConfig {
    /// Pyramid factors, coarse → fine.
    pub pyramid: Vec<usize>,
    /// Initial steps: rotations (rad), log-scales, shears, translations
    /// (voxels).
    pub rot_step: f64,
    /// Initial log-scale step.
    pub scale_step: f64,
    /// Initial shear step.
    pub shear_step: f64,
    /// Initial translation step (voxels).
    pub trans_step: f64,
    /// Max coordinate-descent sweeps per level.
    pub max_sweeps: usize,
    /// Metric settings.
    pub mi: MiConfig,
}

impl Default for AffineRegConfig {
    fn default() -> Self {
        AffineRegConfig {
            pyramid: vec![4, 2, 1],
            rot_step: 0.04,
            scale_step: 0.03,
            shear_step: 0.02,
            trans_step: 2.0,
            max_sweeps: 25,
            mi: MiConfig::default(),
        }
    }
}

/// Result of the affine registration.
#[derive(Debug, Clone)]
pub struct AffineRegResult {
    /// Maps fixed voxel coordinates to moving voxel coordinates.
    pub transform: AffineTransform,
    /// Final metric value.
    pub mi: f64,
    /// Metric evaluations performed.
    pub evaluations: usize,
}

/// Register `moving` onto `fixed` with a 12-DOF affine transform
/// maximizing (normalized) mutual information.
pub fn register_affine(fixed: &Volume<f32>, moving: &Volume<f32>, cfg: &AffineRegConfig) -> AffineRegResult {
    let (r, s, k, dt) = (cfg.rot_step, cfg.scale_step, cfg.shear_step, cfg.trans_step);
    let (params, mi, evaluations) = search_levels(
        fixed,
        moving,
        &cfg.pyramid,
        &cfg.mi,
        cfg.max_sweeps,
        MIN_STEP_FACTOR,
        [r, r, r, s, s, s, k, k, k, dt, dt, dt],
        |p, center| {
            let t = AffineTransform::from_params(p, center);
            // Plausibility wall: intra-patient scanner distortions are a
            // few percent. Without it, MI's degenerate optima (collapse
            // the moving image onto a uniform region) can capture the
            // search.
            let penalty = p[3..9].iter().map(|v| (10.0 * (v.abs() - 0.2).max(0.0)).powi(2)).sum();
            (move |q| t.apply(q), penalty)
        },
    );
    AffineRegResult {
        transform: AffineTransform::from_params(&params, grid_center(fixed)),
        mi,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brainshift_imaging::interp::resample_with;
    use brainshift_imaging::phantom::{generate_preop, PhantomConfig};
    use brainshift_imaging::similarity::ncc;
    use brainshift_imaging::volume::{Dims, Spacing};

    #[test]
    fn affine_transform_roundtrip() {
        let t = AffineTransform::from_params(
            &[0.1, -0.05, 0.2, 0.05, -0.03, 0.02, 0.01, 0.0, -0.02, 1.0, 2.0, -1.0],
            Vec3::new(3.0, 3.0, 3.0),
        );
        let inv = t.inverse().unwrap();
        for p in [Vec3::ZERO, Vec3::new(5.0, -2.0, 7.0)] {
            assert!((inv.apply(t.apply(p)) - p).norm() < 1e-10);
        }
        // Volume factor = exp(Σ log-scales) (shear is unimodular).
        let expect = (0.05f64 - 0.03 + 0.02).exp();
        assert!((t.volume_factor() - expect).abs() < 1e-9);
    }

    #[test]
    fn identity_params_give_identity() {
        let t = AffineTransform::from_params(&[0.0; 12], Vec3::new(1.0, 1.0, 1.0));
        let p = Vec3::new(4.0, 5.0, 6.0);
        assert!((t.apply(p) - p).norm() < 1e-12);
        assert!((t.volume_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recovers_anisotropic_scale() {
        // The moving scan is the phantom with 6% scale error along z —
        // invisible to a rigid model, recoverable by the affine one.
        let scan = generate_preop(&PhantomConfig {
            dims: Dims::new(40, 40, 32),
            spacing: Spacing::iso(4.0),
            ..Default::default()
        });
        let d = scan.intensity.dims();
        let c = Vec3::new(d.nx as f64 / 2.0, d.ny as f64 / 2.0, d.nz as f64 / 2.0);
        // moving(x) = fixed(A_true x) with A_true scaling z by 1.06.
        let a_true = AffineTransform::from_params(
            &[0.0, 0.0, 0.0, 0.0, 0.0, 0.06, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            c,
        );
        let moving = resample_with(&scan.intensity, &scan.intensity, 0.0, |p| a_true.apply(p));
        let res = register_affine(&scan.intensity, &moving, &AffineRegConfig::default());
        // Recovered T maps fixed → moving with moving(T x) ≈ fixed(x):
        // so T ≈ A_true⁻¹. Its volume factor ≈ exp(−0.06).
        let vf = res.transform.volume_factor();
        assert!(
            (vf.ln() + 0.06).abs() < 0.03,
            "volume factor {vf} (log {})",
            vf.ln()
        );
        // And the realignment quality:
        let aligned = resample_with(&moving, &scan.intensity, 0.0, |p| res.transform.apply(p));
        let q = ncc(&scan.intensity, &aligned);
        assert!(q > 0.97, "ncc {q}");
    }
}
