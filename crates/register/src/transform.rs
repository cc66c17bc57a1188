//! Rigid 3-D transforms.
//!
//! "the preoperative data ... is aligned with the intraoperative data
//! using an MI based rigid registration method" — this module provides
//! the 6-DOF transform (Euler rotations about a centre + translation)
//! that the optimizer searches over.

use brainshift_imaging::{Mat3, Vec3};

/// A rigid transform `T(x) = R (x − c) + c + t`, with rotation `R`
/// parameterized by Euler angles and a fixed rotation centre `c` (usually
/// the volume centre, which decorrelates rotation and translation
/// parameters during optimization).
/// ```
/// use brainshift_register::RigidTransform;
/// use brainshift_imaging::Vec3;
/// let t = RigidTransform::from_params([0.0, 0.0, 0.1, 1.0, 0.0, 0.0], Vec3::ZERO);
/// let p = Vec3::new(2.0, 3.0, 4.0);
/// let back = t.inverse().apply(t.apply(p));
/// assert!((back - p).norm() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RigidTransform {
    /// Rotation matrix `R`.
    pub rotation: Mat3,
    /// Translation `t`.
    pub translation: Vec3,
    /// Rotation centre `c`.
    pub center: Vec3,
}

impl RigidTransform {
    /// From the 6-parameter vector `[rx, ry, rz, tx, ty, tz]` (radians,
    /// then the same length unit as the images).
    pub fn from_params(params: [f64; 6], center: Vec3) -> Self {
        RigidTransform {
            rotation: Mat3::from_euler(params[0], params[1], params[2]),
            translation: Vec3::new(params[3], params[4], params[5]),
            center,
        }
    }

    /// Apply to a point.
    #[inline]
    pub fn apply(&self, p: Vec3) -> Vec3 {
        self.rotation * (p - self.center) + self.center + self.translation
    }

    /// The inverse rigid transform (same centre).
    pub fn inverse(&self) -> RigidTransform {
        let rt = self.rotation.transpose();
        RigidTransform {
            rotation: rt,
            translation: -(rt * self.translation),
            center: self.center,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RigidTransform {
        /// Magnitude of the transform: (rotation angle in radians,
        /// translation norm).
        pub(crate) fn magnitude(&self) -> (f64, f64) {
            let trace = self.rotation.m[0][0] + self.rotation.m[1][1] + self.rotation.m[2][2];
            let angle = ((trace - 1.0) / 2.0).clamp(-1.0, 1.0).acos();
            (angle, self.translation.norm())
        }
    }

    fn close(a: Vec3, b: Vec3, tol: f64) {
        assert!((a - b).norm() < tol, "{a:?} vs {b:?}");
    }

    #[test]
    fn zero_parameters_fix_points() {
        let t = RigidTransform::from_params([0.0; 6], Vec3::new(5.0, 5.0, 5.0));
        close(t.apply(Vec3::new(1.0, 2.0, 3.0)), Vec3::new(1.0, 2.0, 3.0), 1e-15);
        let (ang, tr) = t.magnitude();
        assert!(ang.abs() < 1e-12 && tr == 0.0);
    }

    #[test]
    fn pure_translation() {
        let t = RigidTransform::from_params([0.0, 0.0, 0.0, 1.0, -2.0, 3.0], Vec3::ZERO);
        close(t.apply(Vec3::ZERO), Vec3::new(1.0, -2.0, 3.0), 1e-15);
    }

    #[test]
    fn rotation_about_center_fixes_center() {
        let c = Vec3::new(4.0, 4.0, 4.0);
        let t = RigidTransform::from_params([0.3, -0.2, 0.5, 0.0, 0.0, 0.0], c);
        close(t.apply(c), c, 1e-12);
    }

    #[test]
    fn inverse_roundtrip() {
        let t = RigidTransform::from_params([0.2, 0.1, -0.3, 1.0, 2.0, 3.0], Vec3::new(2.0, 2.0, 2.0));
        let inv = t.inverse();
        for p in [Vec3::ZERO, Vec3::new(1.0, -2.0, 5.0), Vec3::new(10.0, 0.0, 3.0)] {
            close(inv.apply(t.apply(p)), p, 1e-12);
            close(t.apply(inv.apply(p)), p, 1e-12);
        }
    }

    #[test]
    fn magnitude_recovers_angle() {
        let t = RigidTransform::from_params([0.0, 0.0, 0.4, 0.0, 0.0, 0.0], Vec3::ZERO);
        let (ang, _) = t.magnitude();
        assert!((ang - 0.4).abs() < 1e-12);
    }
}
