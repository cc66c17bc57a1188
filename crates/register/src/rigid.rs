//! MI rigid registration driver.
//!
//! Multi-resolution maximization of mutual information over the 6 rigid
//! parameters: the shared level loop (`search.rs`) runs an adaptive
//! coordinate descent at each pyramid level — each parameter is perturbed
//! ±step, improving moves are kept and steps shrink until convergence.

use crate::search::{grid_center, search_levels};
use crate::transform::RigidTransform;
use brainshift_imaging::Volume;

/// Initial step for rotations (radians) at the coarsest level.
const ROT_STEP: f64 = 0.05;

/// Initial step for translations (voxels of the current level).
const TRANS_STEP: f64 = 2.0;

/// Coordinate-descent sweeps per pyramid level, at most.
const MAX_SWEEPS: usize = 30;

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
pub fn register_rigid(fixed: &Volume<f32>, moving: &Volume<f32>) -> RigidRegResult {
    // params: [rx, ry, rz, tx, ty, tz], translations at full resolution.
    let (r, dt) = (ROT_STEP, TRANS_STEP);
    let (params, mi, evaluations) = search_levels(
        fixed,
        moving,
        MAX_SWEEPS,
        [r, r, r, dt, dt, dt],
        |p, center| {
            let t = RigidTransform::from_params(*p, center);
            (move |q| t.apply(q), 0.0)
        },
    );
    RigidRegResult { transform: RigidTransform::from_params(params, grid_center(fixed)), mi, evaluations }
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
        let res = register_rigid(&scan.intensity, &moved.intensity);
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
        let res = register_rigid(&scan.intensity, &moved.intensity);
        let (rec_angle, rec_trans) = res.transform.magnitude();
        assert!((rec_angle - angle).abs() < 0.03, "angle {rec_angle} vs {angle}");
        assert!(rec_trans < 2.0, "spurious translation {rec_trans}");
    }

    #[test]
    fn registration_improves_alignment() {
        let scan = phantom_scan();
        let moved = apply_rigid_misalignment(&scan, Mat3::rot_z(0.06), Vec3::new(2.0, 1.0, 0.0));
        let res = register_rigid(&scan.intensity, &moved.intensity);
        let before = ncc(&scan.intensity, &moved.intensity);
        // Resample the moving scan onto the fixed grid: out(x) = moving(T x).
        let t = res.transform;
        let aligned = brainshift_imaging::interp::resample_with(&moved.intensity, &scan.intensity, 0.0, |p| t.apply(p));
        let after = ncc(&scan.intensity, &aligned);
        assert!(after > before, "ncc {before} → {after}");
        assert!(after > 0.9, "alignment too poor: {after}");
    }

    #[test]
    fn identity_input_yields_near_identity() {
        let scan = phantom_scan();
        let res = register_rigid(&scan.intensity, &scan.intensity);
        let (ang, tr) = res.transform.magnitude();
        assert!(ang < 0.02, "angle {ang}");
        assert!(tr < 1.0, "translation {tr}");
        assert!(res.evaluations > 0);
    }
}
