//! The signed distance transform computed on a region only.
//!
//! `banded_signed_distance_transform` runs each axis pass on the maximal
//! runs of a region along each line and saturates every voxel off it.
//! On a seeded corpus of random masks, random regions R = {|ψ| ≤ b} (ψ
//! the signed transform of another random mask) and anisotropic
//! spacings, it must give the whole-volume transform's bits at every
//! voxel where |φ| + |ψ| < b, and the same verdict on that inequality at
//! every voxel; and the whole-volume transform must be the plain
//! three-pass lower-envelope transform, bit for bit, and the brute-force
//! distance.

use brainshift_imaging::dtransform::{
    banded_signed_distance_transform, distance_transform_brute, signed_distance_transform,
};
use brainshift_imaging::volume::{Dims, Spacing, Volume};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const INF: f64 = 1e20;

/// The lower-envelope transform of one whole line, as the separable
/// transform first computed it: `min_p f[p] + h²(q−p)²`.
fn envelope(f: &[f64], h: f64) -> Vec<f64> {
    let n = f.len();
    let w2 = h * h;
    let (mut v, mut z) = (vec![0usize; n], vec![0.0; n + 1]);
    let mut k = 0;
    z[0] = -INF;
    z[1] = INF;
    for q in 1..n {
        let fq = f[q] + w2 * (q * q) as f64;
        loop {
            let p = v[k];
            let s = (fq - (f[p] + w2 * (p * p) as f64)) / (2.0 * w2 * (q - p) as f64);
            if s <= z[k] {
                if k == 0 {
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
    let mut k = 0;
    (0..n)
        .map(|q| {
            while z[k + 1] < q as f64 {
                k += 1;
            }
            let d = q as f64 - v[k] as f64;
            w2 * d * d + f[v[k]]
        })
        .collect()
}

/// Distance (mm) to the voxels where `mask` equals `feature`: the
/// envelope along every whole x line, then y, then z.
fn plain_distance(mask: &Volume<bool>, feature: bool) -> Vec<f32> {
    let d = mask.dims();
    let sp = mask.spacing();
    let mut g: Vec<f64> = mask.data().iter().map(|&m| if m == feature { 0.0 } else { INF }).collect();
    let lines: [(usize, usize, f64); 3] = [(d.nx, 1, sp.dx), (d.ny, d.nx, sp.dy), (d.nz, d.nx * d.ny, sp.dz)];
    for (axis, &(n, stride, h)) in lines.iter().enumerate() {
        for start in 0..d.len() {
            let (x, y, z) = d.coords(start);
            if [x, y, z][axis] != 0 {
                continue;
            }
            let f: Vec<f64> = (0..n).map(|i| g[start + i * stride]).collect();
            for (i, o) in envelope(&f, h).into_iter().enumerate() {
                g[start + i * stride] = o;
            }
        }
    }
    g.iter().map(|&s| s.min(INF).sqrt() as f32).collect()
}

/// The signed transform from two plain ones: the distance to the mask
/// where it is positive, else minus the distance to the complement.
fn plain_signed(mask: &Volume<bool>) -> Vec<f32> {
    let outside = plain_distance(mask, true);
    let inside = plain_distance(mask, false);
    outside.iter().zip(&inside).map(|(&o, &i)| if o > 0.0 { o } else { -i }).collect()
}

/// The guard's inequality |φ| + |ψ| < b, with the relative slack that
/// keeps it true of the unrounded distances.
fn within(phi: f32, psi: f32, b: f32) -> bool {
    f64::from(phi.abs()) + f64::from(psi.abs()) < f64::from(b) / (1.0 + 1e-6)
}

/// Kinds of region run seen along the grid lines of the corpus.
#[derive(Default)]
struct Runs {
    whole_line: usize,
    from_start: usize,
    to_end: usize,
    single: usize,
    empty_line: usize,
}

impl Runs {
    fn count(&mut self, region: &Volume<bool>) {
        let d = region.dims();
        let r = region.data();
        let lines: [(usize, usize); 3] = [(d.nx, 1), (d.ny, d.nx), (d.nz, d.nx * d.ny)];
        for (axis, &(n, stride)) in lines.iter().enumerate() {
            for start in 0..d.len() {
                let (x, y, z) = d.coords(start);
                if [x, y, z][axis] != 0 {
                    continue;
                }
                let line: Vec<bool> = (0..n).map(|i| r[start + i * stride]).collect();
                if line.iter().all(|&m| m) {
                    self.whole_line += 1;
                    continue;
                }
                if !line.iter().any(|&m| m) {
                    self.empty_line += 1;
                }
                self.from_start += usize::from(line[0]);
                self.to_end += usize::from(line[n - 1]);
                self.single += (0..n)
                    .filter(|&i| line[i] && (i == 0 || !line[i - 1]) && (i + 1 == n || !line[i + 1]))
                    .count();
            }
        }
    }
}

fn random_mask(rng: &mut StdRng, dims: Dims, sp: Spacing) -> Volume<bool> {
    let density = [0.0, 0.05, 0.2, 0.5, 0.8, 1.0][rng.gen_range(0..6)];
    Volume::from_fn(dims, sp, |_, _, _| rng.gen_bool(density))
}

#[test]
fn the_banded_transform_is_the_whole_one_wherever_the_guard_trusts_it() {
    let spacings = [0.5, 0.9, 1.0, 1.5, 2.5];
    let mut runs = Runs::default();
    let mut trusted = 0;
    for seed in 0..240u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = Dims::new(rng.gen_range(1..10), rng.gen_range(1..9), rng.gen_range(1..8));
        let pick = |rng: &mut StdRng| spacings[rng.gen_range(0..spacings.len())];
        let sp = Spacing::new(pick(&mut rng), pick(&mut rng), pick(&mut rng));
        let mask = random_mask(&mut rng, dims, sp);
        let other = random_mask(&mut rng, dims, sp);
        let psi = signed_distance_transform(&other);
        let b = rng.gen_range(0.0f32..8.0);
        let region = psi.map(|&p| p.abs() <= b);
        runs.count(&region);

        let whole = signed_distance_transform(&mask);
        let banded = banded_signed_distance_transform(&mask, &region, b);
        let all = Volume::filled(dims, sp, true);
        let lines = banded_signed_distance_transform(&mask, &all, b);
        let plain = plain_signed(&mask);
        for i in 0..dims.len() {
            let (phi, got, r) = (whole.data()[i], banded.data()[i], psi.data()[i]);
            let at = format!("voxel {:?} of {dims:?} {sp:?}, seed {seed}", dims.coords(i));
            assert_eq!(phi.to_bits(), plain[i].to_bits(), "whole vs plain, {at}");
            assert_eq!(lines.data()[i].to_bits(), phi.to_bits(), "whole lines vs whole, {at}");
            assert_eq!(within(got, r, b), within(phi, r, b), "guard verdicts differ, {at}");
            if within(phi, r, b) {
                trusted += 1;
                assert_eq!(got.to_bits(), phi.to_bits(), "banded vs whole, {at}");
            }
            if region.data()[i] {
                assert!(got.abs() >= phi.abs(), "banded below whole, {at}");
            } else {
                assert_eq!(got, if mask.data()[i] { -b } else { b }, "off the region, {at}");
            }
        }

        // The whole transform is the exact distance: to the mask outside
        // it, to the complement inside.
        let complement = mask.map(|&m| !m);
        let (to_mask, to_complement) = (distance_transform_brute(&mask), distance_transform_brute(&complement));
        for (i, &phi) in whole.data().iter().enumerate() {
            let want = if mask.data()[i] { -to_complement.data()[i] } else { to_mask.data()[i] };
            let (phi, want) = (f64::from(phi), f64::from(want));
            assert!((phi - want).abs() <= 1e-5 * want.abs().max(1.0), "{phi} vs brute {want}, seed {seed}");
        }
    }
    assert!(trusted > 1000, "only {trusted} trusted voxels");
    let Runs { whole_line, from_start, to_end, single, empty_line } = runs;
    assert!(
        whole_line > 0 && from_start > 0 && to_end > 0 && single > 0 && empty_line > 0,
        "corpus misses a run kind: {whole_line} whole, {from_start} from start, {to_end} to end, \
         {single} single, {empty_line} empty"
    );
}
