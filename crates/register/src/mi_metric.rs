//! Transform-aware mutual-information metric.
//!
//! Evaluates MI between a fixed volume and a moving volume pulled through
//! a candidate point map — rigid or affine (Wells et al., the paper's
//! ref [20]).

use brainshift_imaging::interp::sample_trilinear;
use brainshift_imaging::similarity::JointHistogram;
use brainshift_imaging::{Vec3, Volume};
use rayon::prelude::*;

/// Metric configuration.
#[derive(Debug, Clone)]
pub struct MiConfig {
    /// Histogram bins per axis (≥ 2).
    pub bins: usize,
    /// Sample every `stride`-th voxel in each axis (≥1); MI is robust to
    /// sparse sampling and this keeps each evaluation cheap.
    pub stride: usize,
    /// Use Studholme's normalized MI instead of plain MI. Plain MI can
    /// *increase* as the overlap region shrinks (the optimizer drifts to
    /// large spurious transforms); NMI is invariant to overlap size and
    /// is the robust default.
    pub normalized: bool,
}

impl Default for MiConfig {
    fn default() -> Self {
        MiConfig { bins: 32, stride: 2, normalized: true }
    }
}

/// Mutual information (nats) between `fixed(x)` and `moving(map(x))`,
/// sampled on the fixed grid in voxel coordinates. Voxel pairs mapping
/// outside the moving volume are skipped; returns 0 if fewer than a
/// minimal count remain.
pub fn mutual_information(
    fixed: &Volume<f32>,
    moving: &Volume<f32>,
    map: impl Fn(Vec3) -> Vec3 + Sync,
    cfg: &MiConfig,
) -> f64 {
    let d = fixed.dims();
    let f_range = fixed.min_max();
    let m_range = moving.min_max();
    let stride = cfg.stride.max(1);
    // One private histogram per z-slab, merged afterwards — the metric
    // sits in the inner loop of the registration search, so the accumulation
    // runs slab-parallel with no shared bins to contend on.
    let zs: Vec<usize> = (0..d.nz).step_by(stride).collect();
    let partials: Vec<JointHistogram> = zs
        .par_iter()
        .map(|&z| {
            let mut h = JointHistogram::new(cfg.bins, f_range, m_range);
            let dm = moving.dims();
            for y in (0..d.ny).step_by(stride) {
                for x in (0..d.nx).step_by(stride) {
                    let p = Vec3::new(x as f64, y as f64, z as f64);
                    let q = map(p);
                    if q.x < 0.0
                        || q.y < 0.0
                        || q.z < 0.0
                        || q.x > dm.nx as f64 - 1.0
                        || q.y > dm.ny as f64 - 1.0
                        || q.z > dm.nz as f64 - 1.0
                    {
                        continue;
                    }
                    let mv = sample_trilinear(moving, q, 0.0);
                    h.add(*fixed.get(x, y, z), mv);
                }
            }
            h
        })
        .collect();
    let mut hist = JointHistogram::new(cfg.bins, f_range, m_range);
    for p in &partials {
        hist.merge(p);
    }
    if hist.total() < 100.0 {
        return 0.0;
    }
    if cfg.normalized {
        hist.normalized_mutual_information()
    } else {
        hist.mutual_information()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::RigidTransform;
    use brainshift_imaging::phantom::{generate_preop, PhantomConfig};
    use brainshift_imaging::volume::{Dims, Spacing};

    fn phantom() -> Volume<f32> {
        let cfg = PhantomConfig {
            dims: Dims::new(32, 32, 24),
            spacing: Spacing::iso(4.0),
            ..Default::default()
        };
        generate_preop(&cfg).intensity
    }

    fn center(v: &Volume<f32>) -> Vec3 {
        let d = v.dims();
        Vec3::new(d.nx as f64 / 2.0, d.ny as f64 / 2.0, d.nz as f64 / 2.0)
    }

    fn through(t: RigidTransform) -> impl Fn(Vec3) -> Vec3 + Sync {
        move |p| t.apply(p)
    }

    #[test]
    fn identity_beats_shifted() {
        let v = phantom();
        let c = center(&v);
        let cfg = MiConfig::default();
        let id = mutual_information(&v, &v, through(RigidTransform::identity(c)), &cfg);
        let shifted = mutual_information(
            &v,
            &v,
            through(RigidTransform::from_params([0.0, 0.0, 0.0, 4.0, 0.0, 0.0], c)),
            &cfg,
        );
        assert!(id > shifted, "{id} vs {shifted}");
    }

    #[test]
    fn identity_beats_rotated() {
        let v = phantom();
        let c = center(&v);
        let cfg = MiConfig::default();
        let id = mutual_information(&v, &v, through(RigidTransform::identity(c)), &cfg);
        let rot = mutual_information(
            &v,
            &v,
            through(RigidTransform::from_params([0.0, 0.0, 0.2, 0.0, 0.0, 0.0], c)),
            &cfg,
        );
        assert!(id > rot, "{id} vs {rot}");
    }

    #[test]
    fn mi_smooth_near_optimum() {
        // MI must decrease monotonically-ish as misalignment grows.
        let v = phantom();
        let c = center(&v);
        let cfg = MiConfig::default();
        let mi_at = |dx: f64| {
            mutual_information(
                &v,
                &v,
                through(RigidTransform::from_params([0.0, 0.0, 0.0, dx, 0.0, 0.0], c)),
                &cfg,
            )
        };
        let m0 = mi_at(0.0);
        let m2 = mi_at(2.0);
        let m6 = mi_at(6.0);
        assert!(m0 > m2 && m2 > m6, "{m0} {m2} {m6}");
    }

    #[test]
    fn completely_outside_returns_zero() {
        let v = phantom();
        let c = center(&v);
        let t = RigidTransform::from_params([0.0, 0.0, 0.0, 1000.0, 0.0, 0.0], c);
        assert_eq!(mutual_information(&v, &v, through(t), &MiConfig::default()), 0.0);
    }
}
