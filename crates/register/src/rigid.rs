//! MI rigid registration driver.
//!
//! Multi-resolution maximization of mutual information over the 6 rigid
//! parameters: the shared level loop (`search.rs`) runs an adaptive
//! coordinate descent at each pyramid level — each parameter is perturbed
//! ±step, improving moves are kept and steps shrink until convergence.

use crate::mi_metric::MiConfig;
use crate::search::{grid_center, search_levels};
use crate::transform::RigidTransform;
use brainshift_imaging::Volume;

/// Registration configuration.
#[derive(Debug, Clone)]
pub struct RigidRegConfig {
    /// Pyramid downsampling factors, each ≥ 1, coarse → fine (e.g.
    /// `[4, 2, 1]`).
    pub pyramid: Vec<usize>,
    /// Initial step for rotations (radians) at the coarsest level.
    pub rot_step: f64,
    /// Initial step for translations (voxels of the current level).
    pub trans_step: f64,
    /// Stop when the step shrinks below this factor of its initial value.
    pub min_step_factor: f64,
    /// Max coordinate-descent sweeps per level.
    pub max_sweeps: usize,
    /// Mutual-information metric settings.
    pub mi: MiConfig,
}

impl Default for RigidRegConfig {
    fn default() -> Self {
        RigidRegConfig {
            pyramid: vec![4, 2, 1],
            rot_step: 0.05,
            trans_step: 2.0,
            min_step_factor: 0.05,
            max_sweeps: 30,
            mi: MiConfig::default(),
        }
    }
}

/// Result of a rigid registration.
#[derive(Debug, Clone)]
pub struct RigidRegResult {
    /// Maps fixed-volume voxel coordinates to moving-volume voxel
    /// coordinates (at full resolution).
    pub transform: RigidTransform,
    /// Final MI value.
    pub mi: f64,
    /// Total metric evaluations (cost proxy).
    pub evaluations: usize,
}

/// Register `moving` onto `fixed`: find `T` maximizing
/// `MI(fixed(x), moving(T x))`.
pub fn register_rigid(fixed: &Volume<f32>, moving: &Volume<f32>, cfg: &RigidRegConfig) -> RigidRegResult {
    // params: [rx, ry, rz, tx, ty, tz], translations at full resolution.
    let (r, dt) = (cfg.rot_step, cfg.trans_step);
    let (params, mi, evaluations) = search_levels(
        fixed,
        moving,
        &cfg.pyramid,
        &cfg.mi,
        cfg.max_sweeps,
        cfg.min_step_factor,
        [r, r, r, dt, dt, dt],
        |p, center| {
            let t = RigidTransform::from_params(*p, center);
            (move |q| t.apply(q), 0.0)
        },
    );
    RigidRegResult { transform: RigidTransform::from_params(params, grid_center(fixed)), mi, evaluations }
}

/// Resample `moving` into the fixed grid through the recovered transform:
/// `out(x) = moving(T x)`.
pub fn apply_registration(fixed: &Volume<f32>, moving: &Volume<f32>, t: &RigidTransform) -> Volume<f32> {
    brainshift_imaging::interp::resample_with(moving, fixed, 0.0, |p| t.apply(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use brainshift_imaging::phantom::{apply_rigid_misalignment, generate_preop, PhantomConfig};
    use brainshift_imaging::similarity::ncc;
    use brainshift_imaging::volume::{Dims, Spacing};
    use brainshift_imaging::{Mat3, Vec3};

    fn phantom_scan() -> brainshift_imaging::phantom::PhantomScan {
        generate_preop(&PhantomConfig {
            dims: Dims::new(40, 40, 32),
            spacing: Spacing::iso(4.0),
            ..Default::default()
        })
    }

    #[test]
    fn recovers_translation() {
        let scan = phantom_scan();
        let true_shift = Vec3::new(3.0, -2.0, 1.0);
        let moved = apply_rigid_misalignment(&scan, Mat3::IDENTITY, true_shift);
        // moved(x) = scan(x + shift) → registering `scan` (fixed) onto
        // `moved` (moving) should find T(x) ≈ x − shift ... and
        // MI(fixed(x), moved(T x)) maximal when T x + shift = x.
        let res = register_rigid(&scan.intensity, &moved.intensity, &RigidRegConfig::default());
        let rec = res.transform.apply(Vec3::new(20.0, 20.0, 16.0)) - Vec3::new(20.0, 20.0, 16.0);
        assert!(
            (rec + true_shift).norm() < 1.0,
            "recovered offset {rec:?}, want {:?}",
            -true_shift
        );
    }

    #[test]
    fn recovers_small_rotation() {
        let scan = phantom_scan();
        let angle = 0.08f64; // ~4.6°
        let moved = apply_rigid_misalignment(&scan, Mat3::rot_z(angle), Vec3::ZERO);
        let res = register_rigid(&scan.intensity, &moved.intensity, &RigidRegConfig::default());
        let (rec_angle, rec_trans) = res.transform.magnitude();
        assert!((rec_angle - angle).abs() < 0.03, "angle {rec_angle} vs {angle}");
        assert!(rec_trans < 2.0, "spurious translation {rec_trans}");
    }

    #[test]
    fn registration_improves_alignment() {
        let scan = phantom_scan();
        let moved = apply_rigid_misalignment(&scan, Mat3::rot_z(0.06), Vec3::new(2.0, 1.0, 0.0));
        let res = register_rigid(&scan.intensity, &moved.intensity, &RigidRegConfig::default());
        let before = ncc(&scan.intensity, &moved.intensity);
        let aligned = apply_registration(&scan.intensity, &moved.intensity, &res.transform);
        let after = ncc(&scan.intensity, &aligned);
        assert!(after > before, "ncc {before} → {after}");
        assert!(after > 0.9, "alignment too poor: {after}");
    }

    #[test]
    fn identity_input_yields_near_identity() {
        let scan = phantom_scan();
        let res = register_rigid(&scan.intensity, &scan.intensity, &RigidRegConfig::default());
        let (ang, tr) = res.transform.magnitude();
        assert!(ang < 0.02, "angle {ang}");
        assert!(tr < 1.0, "translation {tr}");
        assert!(res.evaluations > 0);
    }
}
