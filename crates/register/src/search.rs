//! The one parameter search behind both registration models.
//!
//! [`coordinate_descent`] is an adaptive compass search: each parameter in
//! turn is perturbed by ±its step and the first improving move is kept; a
//! sweep without improvement halves every step, and the search stops once
//! every step is below `min_step_factor` of its initial value.
//! `search_levels` runs it once per pyramid level, coarse → fine, on the
//! mutual information of that level's volumes (Wells et al.). A model —
//! rigid or affine — supplies only its initial steps and its
//! parameter → transform map.

use crate::mi_metric::{mutual_information, MiConfig};
use brainshift_imaging::interp::downsample;
use brainshift_imaging::{Vec3, Volume};

/// Maximize `f` from `x` by adaptive coordinate descent.
///
/// Returns the best point found and its value. `f` is called once at `x`
/// and once per trial move, so a caller that counts calls counts metric
/// evaluations.
/// ```
/// use brainshift_register::coordinate_descent;
/// let (x, best) = coordinate_descent([0.0, 0.0], [1.0, 1.0], 100, 1e-4, |p| {
///     -(p[0] - 1.5).powi(2) - (p[1] + 0.5).powi(2)
/// });
/// assert!((x[0] - 1.5).abs() < 1e-3 && (x[1] + 0.5).abs() < 1e-3);
/// assert!(best > -1e-6);
/// ```
pub fn coordinate_descent<const N: usize>(
    mut x: [f64; N],
    init_steps: [f64; N],
    max_sweeps: usize,
    min_step_factor: f64,
    mut f: impl FnMut(&[f64; N]) -> f64,
) -> ([f64; N], f64) {
    let mut best = f(&x);
    let mut steps = init_steps;
    for _sweep in 0..max_sweeps {
        let mut improved = false;
        for i in 0..N {
            for dir in [1.0, -1.0] {
                let mut trial = x;
                trial[i] += dir * steps[i];
                let v = f(&trial);
                if v > best + 1e-9 {
                    best = v;
                    x = trial;
                    improved = true;
                    break;
                }
            }
        }
        if !improved {
            steps.iter_mut().for_each(|s| *s *= 0.5);
            if steps.iter().zip(&init_steps).all(|(s, s0)| *s < s0 * min_step_factor) {
                break;
            }
        }
    }
    (x, best)
}

/// Voxel-coordinate centre of a volume's grid: the rotation centre of
/// both models, which decorrelates rotation and translation parameters.
pub(crate) fn grid_center(v: &Volume<f32>) -> Vec3 {
    let d = v.dims();
    Vec3::new(d.nx as f64 / 2.0, d.ny as f64 / 2.0, d.nz as f64 / 2.0)
}

/// Multi-resolution maximization of `MI(fixed(x), moving(T x)) − penalty`.
///
/// Parameters live at full resolution and their last three are
/// translations in voxels, so a level of factor `k` searches those with
/// `k`× their initial step and hands `level_map` them divided by `k`,
/// together with the level's grid centre. `level_map` returns the level's
/// point map and a penalty subtracted from its MI. Returns the parameters,
/// the finest level's objective and the metric evaluations spent.
#[allow(clippy::too_many_arguments)]
pub(crate) fn search_levels<const N: usize, M: Fn(Vec3) -> Vec3 + Sync>(
    fixed: &Volume<f32>,
    moving: &Volume<f32>,
    pyramid: &[usize],
    mi: &MiConfig,
    max_sweeps: usize,
    min_step_factor: f64,
    init_steps: [f64; N],
    level_map: impl Fn(&[f64; N], Vec3) -> (M, f64),
) -> ([f64; N], f64, usize) {
    let full_center = grid_center(fixed);
    let mut params = [0.0f64; N];
    let mut evaluations = 0usize;
    let mut last = 0.0;
    let levels: &[usize] = if pyramid.is_empty() { &[1] } else { pyramid };
    for &factor in levels {
        let (f_lvl, m_lvl);
        let (f_ref, m_ref) = if factor > 1 {
            f_lvl = downsample(fixed, factor);
            m_lvl = downsample(moving, factor);
            (&f_lvl, &m_lvl)
        } else {
            (fixed, moving)
        };
        let scale = 1.0 / factor as f64;
        let center = full_center * scale;
        // Adapt the sampling stride to the level size: coarse levels must
        // not starve the joint histogram (aim for ≥ ~30k samples when the
        // level has them).
        let mut mi_cfg = mi.clone();
        while mi_cfg.stride > 1 && f_ref.dims().len() / mi_cfg.stride.pow(3) < 30_000 {
            mi_cfg.stride -= 1;
        }
        let mut steps = init_steps;
        steps[N - 3..].iter_mut().for_each(|s| *s *= factor as f64);
        let objective = |p: &[f64; N]| {
            evaluations += 1;
            let mut lp = *p;
            lp[N - 3..].iter_mut().for_each(|v| *v *= scale);
            let (map, penalty) = level_map(&lp, center);
            mutual_information(f_ref, m_ref, map, &mi_cfg) - penalty
        };
        (params, last) = coordinate_descent(params, steps, max_sweeps, min_step_factor, objective);
    }
    (params, last, evaluations)
}
