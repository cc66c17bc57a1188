//! Euclidean distance transforms.
//!
//! The paper converts every preoperative tissue class into an "explicit 3D
//! volumetric spatially varying model of the location of that tissue class,
//! by computing a saturated distance transform" (citing Ragnemalm). These
//! distance maps become extra channels of the intraoperative k-NN feature
//! space. We implement the exact Euclidean distance transform with the
//! separable lower-envelope (Felzenszwalb–Huttenlocher) algorithm, which is
//! O(n) per axis, plus signed and saturated variants.

use crate::volume::Volume;
use rayon::prelude::*;

const INF: f64 = 1e20;

/// 1-D squared distance transform of sampled function `f` with sample
/// spacing `h` (physical units): computes `min_p f[p] + h²(q−p)²`.
/// `f[i] = 0` at feature points and `INF` elsewhere for a plain
/// distance-to-set transform. Anisotropic volumes run each axis pass with
/// its own spacing, which keeps distances in millimetres — the paper's
/// intraoperative scans are strongly anisotropic (≈0.9×0.9×2.5 mm).
fn dt_1d(f: &[f64], h: f64, out: &mut [f64], v: &mut [usize], z: &mut [f64]) {
    let n = f.len();
    debug_assert!(out.len() == n && v.len() >= n && z.len() > n);
    if n == 0 {
        return;
    }
    let w2 = h * h;
    let mut k = 0usize;
    v[0] = 0;
    z[0] = -INF;
    z[1] = INF;
    for q in 1..n {
        let fq = f[q] + w2 * (q * q) as f64;
        loop {
            let p = v[k];
            let s = (fq - (f[p] + w2 * (p * p) as f64)) / (2.0 * w2 * (q - p) as f64);
            if s <= z[k] {
                if k == 0 {
                    // parabola q dominates everywhere so far
                    v[0] = q;
                    z[0] = -INF;
                    z[1] = INF;
                    break;
                }
                k -= 1;
            } else {
                k += 1;
                v[k] = q;
                z[k] = s;
                z[k + 1] = INF;
                break;
            }
        }
    }
    let mut k = 0usize;
    for (q, o) in out.iter_mut().enumerate() {
        while z[k + 1] < q as f64 {
            k += 1;
        }
        let p = v[k];
        let d = q as f64 - p as f64;
        *o = w2 * d * d + f[p];
    }
}

/// Scratch for [`dt_1d`] over lines of up to `n` samples: a line's input
/// copy and output, the parabola sites and their boundaries.
fn line_scratch(n: usize) -> (Vec<f64>, Vec<f64>, Vec<usize>, Vec<f64>) {
    (vec![0.0; n], vec![0.0; n], vec![0; n], vec![0.0; n + 1])
}

/// z-planes transposed per task by the last sweep of [`squared_edt_mm`]:
/// one cache line of `f64` pillar samples.
const Z_BLOCK: usize = 8;

/// Exact squared Euclidean distance in *physical* units (mm², honoring
/// anisotropic voxel spacing) from every voxel to the nearest voxel where
/// `mask` is true, each passed through `finish` on its way out. Voxels
/// inside the mask get 0. If the mask is empty, all distances are
/// `INF`-like large values.
///
/// Three separable passes, x then y then z. The x and y passes run in
/// place inside each z-slab; the z pass reads pillars out of the slabs
/// and writes them contiguously into a `[y][x][z]` buffer, which a last
/// slab-parallel sweep transposes back through `finish`. Scratch is
/// allocated once per parallel task, never per line.
fn squared_edt_mm<T: Copy + Default + Send>(
    mask: &Volume<bool>,
    finish: impl Fn(f64) -> T + Sync,
) -> Vec<T> {
    let d = mask.dims();
    let sp = mask.spacing();
    if d.is_empty() {
        return Vec::new();
    }
    let mut g: Vec<f64> = mask.data().iter().map(|&m| if m { 0.0 } else { INF }).collect();
    let slab = d.nx * d.ny;

    g.par_chunks_mut(slab).for_each(|plane| {
        let (mut f, mut out, mut v, mut zz) = line_scratch(d.nx.max(d.ny));
        // Pass along x: each row is contiguous.
        for row in plane.chunks_mut(d.nx) {
            f[..d.nx].copy_from_slice(row);
            dt_1d(&f[..d.nx], sp.dx, row, &mut v, &mut zz);
        }
        // Pass along y: gather a column, transform, scatter it back.
        for x in 0..d.nx {
            for (fy, row) in f.iter_mut().zip(plane.chunks(d.nx)) {
                *fy = row[x];
            }
            dt_1d(&f[..d.ny], sp.dy, &mut out[..d.ny], &mut v, &mut zz);
            for (row, &o) in plane.chunks_mut(d.nx).zip(&out) {
                row[x] = o;
            }
        }
    });

    // Pass along z, one task per y: pillar (x, y) lands at
    // `t[(y·nx + x)·nz ..][..nz]`.
    let mut t = vec![0.0; g.len()];
    t.par_chunks_mut(d.nx * d.nz).enumerate().for_each(|(y, pillars)| {
        let (mut f, _, mut v, mut zz) = line_scratch(d.nz);
        for (x, out) in pillars.chunks_mut(d.nz).enumerate() {
            for (fz, plane) in f.iter_mut().zip(g.chunks(slab)) {
                *fz = plane[x + d.nx * y];
            }
            dt_1d(&f, sp.dz, out, &mut v, &mut zz);
        }
    });
    drop(g);

    // Back to `[z][y][x]`, a block of planes per task so that each pillar
    // is read once.
    let mut out = vec![T::default(); t.len()];
    out.par_chunks_mut(slab * Z_BLOCK).enumerate().for_each(|(b, planes)| {
        let z0 = b * Z_BLOCK;
        let z1 = z0 + planes.len() / slab;
        for (i, pillar) in t.chunks(d.nz).enumerate() {
            for (dz, &sq) in pillar[z0..z1].iter().enumerate() {
                planes[dz * slab + i] = finish(sq);
            }
        }
    });
    out
}

/// Euclidean distance (millimetres; anisotropic spacing honored) from
/// every voxel to the nearest voxel of `mask`.
pub fn distance_transform(mask: &Volume<bool>) -> Volume<f32> {
    let data = squared_edt_mm(mask, |s| (s.min(INF)).sqrt() as f32);
    Volume::from_vec(mask.dims(), mask.spacing(), data)
}

/// Signed Euclidean distance: negative inside the mask (distance to the
/// complement), positive outside (distance to the mask). Zero only when the
/// mask or its complement is empty at that location's transform.
pub fn signed_distance_transform(mask: &Volume<bool>) -> Volume<f32> {
    let outside = distance_transform(mask);
    let inv = mask.map(|&m| !m);
    let inside = distance_transform(&inv);
    let data: Vec<f32> = outside
        .data()
        .par_iter()
        .zip(inside.data().par_iter())
        .map(|(&o, &i)| if o > 0.0 { o } else { -i })
        .collect();
    Volume::from_vec(mask.dims(), mask.spacing(), data)
}

/// The paper's *saturated* distance transform: a signed distance (mm)
/// clamped to `[-cap, cap]`, so that far-away voxels do not dominate the
/// k-NN feature space.
pub fn saturated_distance_transform(mask: &Volume<bool>, cap: f32) -> Volume<f32> {
    assert!(cap > 0.0);
    let sdt = signed_distance_transform(mask);
    sdt.map(|&v| v.clamp(-cap, cap))
}

/// Distance transform of one label of a segmentation.
pub fn label_distance_map(seg: &Volume<u8>, label: u8, cap: f32) -> Volume<f32> {
    let mask = seg.map(|&l| l == label);
    saturated_distance_transform(&mask, cap)
}

/// Brute-force O(n²) reference distance transform (mm), for testing only.
pub fn distance_transform_brute(mask: &Volume<bool>) -> Volume<f32> {
    let d = mask.dims();
    let sp = mask.spacing();
    let features: Vec<(i64, i64, i64)> = mask
        .iter_voxels()
        .filter(|&(_, _, _, &m)| m)
        .map(|(x, y, z, _)| (x as i64, y as i64, z as i64))
        .collect();
    Volume::from_fn(d, mask.spacing(), |x, y, z| {
        let mut best = INF;
        for &(fx, fy, fz) in &features {
            let dx = (x as i64 - fx) as f64 * sp.dx;
            let dy = (y as i64 - fy) as f64 * sp.dy;
            let dz = (z as i64 - fz) as f64 * sp.dz;
            let dd = dx * dx + dy * dy + dz * dz;
            if dd < best {
                best = dd;
            }
        }
        best.sqrt() as f32
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::{Dims, Spacing};

    #[test]
    fn single_point_distances() {
        let mut m: Volume<bool> = Volume::filled(Dims::new(9, 9, 9), Spacing::iso(1.0), false);
        m.set(4, 4, 4, true);
        let dt = distance_transform(&m);
        assert_eq!(*dt.get(4, 4, 4), 0.0);
        assert!((*dt.get(7, 4, 4) - 3.0).abs() < 1e-5);
        assert!((*dt.get(4, 0, 4) - 4.0).abs() < 1e-5);
        let diag = *dt.get(5, 5, 5);
        assert!((diag - 3.0f32.sqrt()).abs() < 1e-5);
    }

    #[test]
    fn matches_brute_force_on_random_masks() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..3 {
            let m = Volume::from_fn(Dims::new(7, 6, 5), Spacing::iso(1.0), |_, _, _| rng.gen_bool(0.15));
            if m.data().iter().all(|&b| !b) {
                continue;
            }
            let fast = distance_transform(&m);
            let brute = distance_transform_brute(&m);
            for (a, b) in fast.data().iter().zip(brute.data()) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn signed_distance_negative_inside() {
        let m = Volume::from_fn(Dims::new(11, 11, 11), Spacing::iso(1.0), |x, y, z| {
            let dx = x as f64 - 5.0;
            let dy = y as f64 - 5.0;
            let dz = z as f64 - 5.0;
            (dx * dx + dy * dy + dz * dz).sqrt() < 3.5
        });
        let sdt = signed_distance_transform(&m);
        assert!(*sdt.get(5, 5, 5) < 0.0);
        assert!(*sdt.get(0, 0, 0) > 0.0);
        // Deep inside should be more negative than near the surface.
        assert!(*sdt.get(5, 5, 5) < *sdt.get(5, 5, 7));
    }

    #[test]
    fn saturation_clamps() {
        let mut m: Volume<bool> = Volume::filled(Dims::new(21, 5, 5), Spacing::iso(1.0), false);
        m.set(0, 2, 2, true);
        let s = saturated_distance_transform(&m, 5.0);
        let (lo, hi) = s.min_max();
        assert!(lo >= -5.0 && hi <= 5.0);
        assert_eq!(*s.get(20, 2, 2), 5.0);
    }

    #[test]
    fn anisotropic_spacing_gives_mm_distances() {
        // A single seed in a 2.0×1.0×4.0 mm grid: distances must be mm.
        let mut m: Volume<bool> =
            Volume::filled(Dims::new(9, 9, 9), Spacing::new(2.0, 1.0, 4.0), false);
        m.set(4, 4, 4, true);
        let dt = distance_transform(&m);
        assert!((*dt.get(6, 4, 4) - 4.0).abs() < 1e-5); // 2 voxels × 2 mm
        assert!((*dt.get(4, 6, 4) - 2.0).abs() < 1e-5); // 2 voxels × 1 mm
        assert!((*dt.get(4, 4, 6) - 8.0).abs() < 1e-5); // 2 voxels × 4 mm
        let brute = distance_transform_brute(&m);
        for (a, b) in dt.data().iter().zip(brute.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn anisotropic_matches_brute_force_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let m = Volume::from_fn(Dims::new(6, 7, 5), Spacing::new(0.9, 0.9, 2.5), |_, _, _| {
            rng.gen_bool(0.2)
        });
        if m.data().iter().any(|&b| b) {
            let fast = distance_transform(&m);
            let brute = distance_transform_brute(&m);
            for (a, b) in fast.data().iter().zip(brute.data()) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn squared_edt_equals_brute_force_on_thin_and_anisotropic_grids() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        // Spacings whose squares are exact in binary, so both sides do
        // exact arithmetic and must agree to the bit. 7×5×1 has a z axis
        // of length 1; 6×9×4 leaves a partial block in the last sweep.
        for (dims, sp) in [
            (Dims::new(7, 5, 1), Spacing::new(1.0, 1.5, 2.5)),
            (Dims::new(6, 9, 4), Spacing::new(1.5, 0.5, 2.5)),
        ] {
            let m = Volume::from_fn(dims, sp, |_, _, _| rng.gen_bool(0.2));
            let features: Vec<_> =
                m.iter_voxels().filter(|&(_, _, _, &on)| on).map(|(x, y, z, _)| (x, y, z)).collect();
            assert!(!features.is_empty());
            let fast = squared_edt_mm(&m, |s| s);
            assert_eq!(fast.len(), dims.len());
            for (x, y, z, _) in m.iter_voxels() {
                let brute = features
                    .iter()
                    .map(|&(fx, fy, fz)| {
                        let d = |a: usize, b: usize, h: f64| (a as f64 - b as f64) * h;
                        let (dx, dy, dz) = (d(x, fx, sp.dx), d(y, fy, sp.dy), d(z, fz, sp.dz));
                        dx * dx + dy * dy + dz * dz
                    })
                    .fold(f64::INFINITY, f64::min);
                assert_eq!(fast[dims.index(x, y, z)].to_bits(), brute.to_bits(), "({x},{y},{z}) of {dims:?}");
            }
        }
    }

    #[test]
    fn empty_mask_all_far() {
        let m: Volume<bool> = Volume::filled(Dims::new(4, 4, 4), Spacing::iso(1.0), false);
        let dt = distance_transform(&m);
        for &v in dt.data() {
            assert!(v > 1e5);
        }
    }

    #[test]
    fn full_mask_all_zero() {
        let m: Volume<bool> = Volume::filled(Dims::new(4, 4, 4), Spacing::iso(1.0), true);
        let dt = distance_transform(&m);
        for &v in dt.data() {
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn label_distance_map_targets_one_label() {
        let mut seg: Volume<u8> = Volume::zeros(Dims::new(8, 8, 8), Spacing::iso(1.0));
        seg.set(2, 2, 2, 4);
        seg.set(6, 6, 6, 5);
        let dm = label_distance_map(&seg, 4, 10.0);
        assert!(*dm.get(2, 2, 2) <= 0.0);
        assert!(*dm.get(6, 6, 6) > 0.0);
    }
}
