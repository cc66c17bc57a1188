//! Interpolation and resampling.
//!
//! The pipeline resamples volumes in three places: the multiresolution
//! pyramid of the MI rigid registration, the application of the recovered
//! rigid transform, and the final warp of preoperative data through the
//! FEM displacement field (the "~0.5 s resample" of the paper).

use crate::geom::Vec3;
use crate::volume::Volume;

/// Trilinear interpolation of a scalar volume at continuous voxel
/// coordinates `p` (units of voxels, not mm). Samples outside the volume
/// return `outside`.
pub fn sample_trilinear(vol: &Volume<f32>, p: Vec3, outside: f32) -> f32 {
    let d = vol.dims();
    // Clamp-free: any sample whose 8-neighborhood is not fully inside uses
    // nearest-valid clamping per-corner, but fully outside returns `outside`.
    if p.x < -0.5
        || p.y < -0.5
        || p.z < -0.5
        || p.x > d.nx as f64 - 0.5
        || p.y > d.ny as f64 - 0.5
        || p.z > d.nz as f64 - 0.5
    {
        return outside;
    }
    let x0 = p.x.floor();
    let y0 = p.y.floor();
    let z0 = p.z.floor();
    let fx = p.x - x0;
    let fy = p.y - y0;
    let fz = p.z - z0;
    let cl = |v: f64, n: usize| -> usize { (v.max(0.0) as usize).min(n - 1) };
    let xs = [cl(x0, d.nx), cl(x0 + 1.0, d.nx)];
    let ys = [cl(y0, d.ny), cl(y0 + 1.0, d.ny)];
    let zs = [cl(z0, d.nz), cl(z0 + 1.0, d.nz)];
    let mut acc = 0.0f64;
    for (iz, wz) in [(zs[0], 1.0 - fz), (zs[1], fz)] {
        if wz == 0.0 {
            continue;
        }
        for (iy, wy) in [(ys[0], 1.0 - fy), (ys[1], fy)] {
            if wy == 0.0 {
                continue;
            }
            for (ix, wx) in [(xs[0], 1.0 - fx), (xs[1], fx)] {
                if wx == 0.0 {
                    continue;
                }
                acc += wz * wy * wx * (*vol.get(ix, iy, iz) as f64);
            }
        }
    }
    acc as f32
}

/// Nearest-neighbour sampling of a label volume at continuous voxel
/// coordinates; outside samples return `outside`.
pub fn sample_nearest(vol: &Volume<u8>, p: Vec3, outside: u8) -> u8 {
    let x = p.x.round() as i64;
    let y = p.y.round() as i64;
    let z = p.z.round() as i64;
    vol.try_get(x, y, z).copied().unwrap_or(outside)
}

/// Resample `src` onto the grid of shape/spacing `like`, pulling each output
/// voxel through `map_out_to_src`, which maps *output voxel coordinates* to
/// *source voxel coordinates*.
pub fn resample_with<F>(src: &Volume<f32>, like: &Volume<f32>, outside: f32, map_out_to_src: F) -> Volume<f32>
where
    F: Fn(Vec3) -> Vec3 + Sync,
{
    let d = like.dims();
    let mut out = Volume::filled(d, like.spacing(), outside);
    // x-fastest storage: parallelise over z-slabs via chunks.
    use rayon::prelude::*;
    let slab = d.nx * d.ny;
    out.data_mut()
        .par_chunks_mut(slab)
        .enumerate()
        .for_each(|(z, slice)| {
            for y in 0..d.ny {
                for x in 0..d.nx {
                    let p = map_out_to_src(Vec3::new(x as f64, y as f64, z as f64));
                    slice[x + d.nx * y] = sample_trilinear(src, p, outside);
                }
            }
        });
    out
}

/// Resample a label volume with nearest-neighbour interpolation.
pub fn resample_labels_with<F>(src: &Volume<u8>, like_dims: crate::volume::Dims, like_spacing: crate::volume::Spacing, outside: u8, map_out_to_src: F) -> Volume<u8>
where
    F: Fn(Vec3) -> Vec3 + Sync,
{
    use rayon::prelude::*;
    let d = like_dims;
    let mut out = Volume::filled(d, like_spacing, outside);
    let slab = d.nx * d.ny;
    out.data_mut()
        .par_chunks_mut(slab)
        .enumerate()
        .for_each(|(z, slice)| {
            for y in 0..d.ny {
                for x in 0..d.nx {
                    let p = map_out_to_src(Vec3::new(x as f64, y as f64, z as f64));
                    slice[x + d.nx * y] = sample_nearest(src, p, outside);
                }
            }
        });
    out
}

/// Downsample a scalar volume by an integer factor with box averaging
/// (used by the registration pyramid).
pub fn downsample(src: &Volume<f32>, factor: usize) -> Volume<f32> {
    assert!(factor >= 1);
    let d = src.dims();
    let nd = crate::volume::Dims::new(
        (d.nx / factor).max(1),
        (d.ny / factor).max(1),
        (d.nz / factor).max(1),
    );
    let sp = src.spacing();
    let nsp = crate::volume::Spacing::new(sp.dx * factor as f64, sp.dy * factor as f64, sp.dz * factor as f64);
    Volume::from_fn(nd, nsp, |x, y, z| {
        let mut acc = 0.0f64;
        let mut n = 0u32;
        for dz in 0..factor {
            for dy in 0..factor {
                for dx in 0..factor {
                    let sx = x * factor + dx;
                    let sy = y * factor + dy;
                    let sz = z * factor + dz;
                    if sx < d.nx && sy < d.ny && sz < d.nz {
                        acc += *src.get(sx, sy, sz) as f64;
                        n += 1;
                    }
                }
            }
        }
        (acc / n.max(1) as f64) as f32
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::{Dims, Spacing};

    fn ramp_volume() -> Volume<f32> {
        Volume::from_fn(Dims::new(8, 8, 8), Spacing::iso(1.0), |x, y, z| (x + y + z) as f32)
    }

    #[test]
    fn trilinear_exact_at_voxel_centres() {
        let v = ramp_volume();
        for z in 0..8 {
            for y in 0..8 {
                for x in 0..8 {
                    let s = sample_trilinear(&v, crate::geom::Vec3::new(x as f64, y as f64, z as f64), -1.0);
                    assert!((s - (x + y + z) as f32).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn trilinear_linear_in_between() {
        let v = ramp_volume();
        // A linear ramp must be reproduced exactly at fractional positions.
        let s = sample_trilinear(&v, Vec3::new(2.5, 3.25, 4.75), -1.0);
        assert!((s - 10.5).abs() < 1e-5, "{s}");
    }

    #[test]
    fn trilinear_outside_returns_flag() {
        let v = ramp_volume();
        assert_eq!(sample_trilinear(&v, Vec3::new(-5.0, 0.0, 0.0), -7.0), -7.0);
        assert_eq!(sample_trilinear(&v, Vec3::new(0.0, 0.0, 100.0), -7.0), -7.0);
    }

    #[test]
    fn nearest_picks_closest_voxel() {
        let mut v: Volume<u8> = Volume::zeros(Dims::new(4, 4, 4), Spacing::iso(1.0));
        v.set(2, 2, 2, 9);
        assert_eq!(sample_nearest(&v, Vec3::new(2.2, 1.8, 2.4), 255), 9);
        assert_eq!(sample_nearest(&v, Vec3::new(-3.0, 0.0, 0.0), 255), 255);
    }

    #[test]
    fn resample_identity_preserves_values() {
        let v = ramp_volume();
        let out = resample_with(&v, &v, 0.0, |p| p);
        for (a, b) in v.data().iter().zip(out.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn resample_translation_shifts_ramp() {
        let v = ramp_volume();
        let out = resample_with(&v, &v, f32::NAN, |p| p + Vec3::new(1.0, 0.0, 0.0));
        // out(x) = src(x+1) = x+1+y+z where defined
        assert!((out.get(2, 3, 4) - 10.0).abs() < 1e-5);
    }

    #[test]
    fn downsample_halves_dims_and_averages() {
        let v = Volume::from_fn(Dims::new(4, 4, 4), Spacing::iso(1.0), |x, _, _| x as f32);
        let half = downsample(&v, 2);
        assert_eq!(half.dims(), Dims::new(2, 2, 2));
        assert!((half.get(0, 0, 0) - 0.5).abs() < 1e-6);
        assert!((half.get(1, 0, 0) - 2.5).abs() < 1e-6);
        assert!((half.spacing().dx - 2.0).abs() < 1e-12);
    }
}
