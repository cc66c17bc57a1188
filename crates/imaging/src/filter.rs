//! Separable smoothing and gradient filters.
//!
//! The active-surface stage derives its image forces from gradients of a
//! smoothed intraoperative scan; the MI registration pyramid smooths before
//! decimating.

use crate::geom::Vec3;
use crate::volume::Volume;
use rayon::prelude::*;

/// Build a normalized 1-D Gaussian kernel with standard deviation `sigma`
/// (in voxels), truncated at `3 sigma`.
pub fn gaussian_kernel(sigma: f64) -> Vec<f64> {
    assert!(sigma > 0.0, "sigma must be positive");
    let radius = (3.0 * sigma).ceil() as i64;
    let mut k: Vec<f64> = (-radius..=radius)
        .map(|i| (-(i as f64).powi(2) / (2.0 * sigma * sigma)).exp())
        .collect();
    let sum: f64 = k.iter().sum();
    for v in &mut k {
        *v /= sum;
    }
    k
}

/// Convolve along one axis (0=x, 1=y, 2=z) with a symmetric kernel,
/// clamping at the borders (replicate padding).
fn convolve_axis(vol: &Volume<f32>, kernel: &[f64], axis: usize) -> Volume<f32> {
    let d = vol.dims();
    let radius = (kernel.len() / 2) as i64;
    let n_axis = [d.nx, d.ny, d.nz][axis] as i64;
    let mut out = Volume::zeros(d, vol.spacing());
    let slab = d.nx * d.ny;
    let src = vol.data();
    out.data_mut()
        .par_chunks_mut(slab)
        .enumerate()
        .for_each(|(z, slice)| {
            for y in 0..d.ny {
                for x in 0..d.nx {
                    let mut acc = 0.0f64;
                    for (ki, &w) in kernel.iter().enumerate() {
                        let off = ki as i64 - radius;
                        let mut c = [x as i64, y as i64, z as i64];
                        c[axis] = (c[axis] + off).clamp(0, n_axis - 1);
                        acc += w * src[d.index(c[0] as usize, c[1] as usize, c[2] as usize)] as f64;
                    }
                    slice[x + d.nx * y] = acc as f32;
                }
            }
        });
    out
}

/// Separable Gaussian smoothing with standard deviation `sigma` voxels.
pub fn gaussian_smooth(vol: &Volume<f32>, sigma: f64) -> Volume<f32> {
    let k = gaussian_kernel(sigma);
    let a = convolve_axis(vol, &k, 0);
    let b = convolve_axis(&a, &k, 1);
    convolve_axis(&b, &k, 2)
}

/// The difference rule of [`gradient`] and [`gradient_planes`] along one
/// axis: central where both neighbours exist, one-sided at a border, zero
/// on an axis of length 1. `i` is the voxel's linear index, `c` its
/// coordinate on the axis, `n` the axis length, `stride` the axis'
/// linear-index step and `h` its spacing.
#[inline]
fn axis_difference(src: &[f32], i: usize, c: usize, n: usize, stride: usize, h: f64) -> f64 {
    if n == 1 {
        return 0.0;
    }
    let (lo, below) = if c > 0 { (i - stride, 1) } else { (i, 0) };
    let (hi, above) = if c + 1 < n { (i + stride, 1) } else { (i, 0) };
    let span = (below + above) as f64 * h;
    (src[hi] as f64 - src[lo] as f64) / span
}

/// Central-difference gradient, in intensity units per millimetre.
/// Borders use one-sided differences.
pub fn gradient(vol: &Volume<f32>) -> Vec<Vec3> {
    let d = vol.dims();
    let sp = vol.spacing();
    let src = vol.data();
    (0..d.len())
        .into_par_iter()
        .map(|i| {
            let (x, y, z) = d.coords(i);
            Vec3::new(
                axis_difference(src, i, x, d.nx, 1, sp.dx),
                axis_difference(src, i, y, d.ny, d.nx, sp.dy),
                axis_difference(src, i, z, d.nz, d.nx * d.ny, sp.dz),
            )
        })
        .collect()
}

/// [`gradient`] rounded to `f32` and split by component: the x, y and z
/// derivatives as three voxel-aligned arrays, written in one pass over
/// the z-slabs (no intermediate `Vec<Vec3>`).
pub fn gradient_planes(vol: &Volume<f32>) -> [Vec<f32>; 3] {
    let d = vol.dims();
    let sp = vol.spacing();
    let src = vol.data();
    let slab = d.nx * d.ny;
    let mut planes = [vec![0.0f32; d.len()], vec![0.0f32; d.len()], vec![0.0f32; d.len()]];
    if slab == 0 {
        return planes;
    }
    let [gx, gy, gz] = &mut planes;
    gx.par_chunks_mut(slab)
        .zip(gy.par_chunks_mut(slab))
        .zip(gz.par_chunks_mut(slab))
        .enumerate()
        .for_each(|(z, ((gx, gy), gz))| {
            for y in 0..d.ny {
                for x in 0..d.nx {
                    let j = x + d.nx * y;
                    let i = j + slab * z;
                    gx[j] = axis_difference(src, i, x, d.nx, 1, sp.dx) as f32;
                    gy[j] = axis_difference(src, i, y, d.ny, d.nx, sp.dy) as f32;
                    gz[j] = axis_difference(src, i, z, d.nz, slab, sp.dz) as f32;
                }
            }
        });
    planes
}

/// Gradient-magnitude volume (intensity per mm).
pub fn gradient_magnitude(vol: &Volume<f32>) -> Volume<f32> {
    let g = gradient(vol);
    let mags: Vec<f32> = g.par_iter().map(|v| v.norm() as f32).collect();
    Volume::from_vec(vol.dims(), vol.spacing(), mags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::{Dims, Spacing};

    #[test]
    fn kernel_is_normalized_and_symmetric() {
        let k = gaussian_kernel(1.5);
        let sum: f64 = k.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(k.len() % 2, 1);
        for i in 0..k.len() / 2 {
            assert!((k[i] - k[k.len() - 1 - i]).abs() < 1e-15);
        }
    }

    #[test]
    fn smoothing_preserves_constant_volume() {
        let v = Volume::filled(Dims::new(6, 6, 6), Spacing::iso(1.0), 3.5f32);
        let s = gaussian_smooth(&v, 1.0);
        for &val in s.data() {
            assert!((val - 3.5).abs() < 1e-5);
        }
    }

    #[test]
    fn smoothing_reduces_variance_of_noise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let v = Volume::from_fn(Dims::new(12, 12, 12), Spacing::iso(1.0), |_, _, _| rng.gen_range(-1.0f32..1.0));
        let s = gaussian_smooth(&v, 1.0);
        let var = |vol: &Volume<f32>| {
            let m = vol.mean();
            vol.data().iter().map(|&x| (x as f64 - m).powi(2)).sum::<f64>() / vol.data().len() as f64
        };
        assert!(var(&s) < var(&v) * 0.5);
    }

    #[test]
    fn gradient_of_linear_ramp_is_constant() {
        let v = Volume::from_fn(Dims::new(8, 8, 8), Spacing::iso(2.0), |x, y, z| (2 * x + 3 * y + 5 * z) as f32);
        let g = gradient(&v);
        let d = v.dims();
        // interior voxel: gradient in intensity per mm with spacing 2.0
        let gi = g[d.index(4, 4, 4)];
        assert!((gi.x - 1.0).abs() < 1e-6);
        assert!((gi.y - 1.5).abs() < 1e-6);
        assert!((gi.z - 2.5).abs() < 1e-6);
    }

    #[test]
    fn gradient_planes_are_the_gradient_rounded_to_f32() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        // Every voxel of the small grids is on a border; (5, 1, 4) has an
        // axis of length 1, (7, 6, 5) has interior voxels too.
        for dims in [Dims::new(7, 6, 5), Dims::new(5, 1, 4), Dims::new(1, 3, 2), Dims::new(2, 2, 1)] {
            let v = Volume::from_fn(dims, Spacing::new(0.9, 1.1, 2.5), |_, _, _| rng.gen_range(-50.0f32..50.0));
            let [gx, gy, gz] = gradient_planes(&v);
            let g = gradient(&v);
            assert_eq!(g.len(), dims.len());
            for (i, v) in g.iter().enumerate() {
                let want = [v.x as f32, v.y as f32, v.z as f32].map(f32::to_bits);
                let got = [gx[i], gy[i], gz[i]].map(f32::to_bits);
                assert_eq!(got, want, "voxel {:?} of {dims:?}", dims.coords(i));
            }
        }
    }

    #[test]
    fn gradient_magnitude_peaks_at_edge() {
        // Step edge at x = 4
        let v = Volume::from_fn(Dims::new(8, 8, 8), Spacing::iso(1.0), |x, _, _| if x < 4 { 0.0 } else { 100.0 });
        let gm = gradient_magnitude(&v);
        let at_edge = *gm.get(4, 4, 4);
        let far = *gm.get(1, 4, 4);
        assert!(at_edge > far);
        assert!(at_edge >= 50.0 - 1e-3);
    }

    #[test]
    fn gradient_degenerate_single_slice() {
        let v = Volume::from_fn(Dims::new(4, 4, 1), Spacing::iso(1.0), |x, _, _| x as f32);
        let g = gradient(&v);
        assert!((g[v.dims().index(2, 2, 0)].z).abs() < 1e-12);
    }
}
