//! Image similarity metrics.
//!
//! Mutual information (Wells/Viola, the paper's reference [20]) drives the
//! rigid alignment of preoperative to intraoperative scans: its joint
//! histogram lives here, the transform-aware metric in
//! `brainshift-register`. SSD/NCC serve as sanity metrics and for the
//! quantitative version of Figure 4(d).

use crate::volume::Volume;

/// Normalized cross-correlation in `[-1, 1]` (higher is better). Returns 0
/// when either image is constant.
pub fn ncc(a: &Volume<f32>, b: &Volume<f32>) -> f64 {
    assert_eq!(a.dims(), b.dims());
    let n = a.data().len() as f64;
    if n == 0.0 {
        return 0.0;
    }
    let ma = a.mean();
    let mb = b.mean();
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for (&x, &y) in a.data().iter().zip(b.data()) {
        let u = x as f64 - ma;
        let v = y as f64 - mb;
        num += u * v;
        da += u * u;
        db += v * v;
    }
    if da <= 0.0 || db <= 0.0 {
        return 0.0;
    }
    num / (da.sqrt() * db.sqrt())
}

/// A joint intensity histogram between two images, the workhorse of the
/// mutual-information metric.
#[derive(Debug, Clone)]
pub struct JointHistogram {
    bins: usize,
    counts: Vec<f64>,
    total: f64,
    a_range: (f32, f32),
    b_range: (f32, f32),
}

impl JointHistogram {
    /// Create an empty histogram with `bins × bins` cells over the given
    /// intensity ranges.
    pub fn new(bins: usize, a_range: (f32, f32), b_range: (f32, f32)) -> Self {
        assert!(bins >= 2);
        JointHistogram {
            bins,
            counts: vec![0.0; bins * bins],
            total: 0.0,
            a_range,
            b_range,
        }
    }

    #[inline]
    fn bin_of(v: f32, range: (f32, f32), bins: usize) -> usize {
        let (lo, hi) = range;
        if hi <= lo {
            return 0;
        }
        let t = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
        ((t * bins as f32) as usize).min(bins - 1)
    }

    /// Accumulate one intensity pair.
    #[inline]
    pub fn add(&mut self, a: f32, b: f32) {
        let ia = Self::bin_of(a, self.a_range, self.bins);
        let ib = Self::bin_of(b, self.b_range, self.bins);
        self.counts[ia * self.bins + ib] += 1.0;
        self.total += 1.0;
    }

    /// Number of samples accumulated.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Fold another histogram's counts into this one. Both must have been
    /// created with the same bin count and intensity ranges (histogram
    /// addition is only meaningful over a shared binning); panics
    /// otherwise. This is the reduction step of per-thread accumulation:
    /// each worker fills a private histogram, then the partials merge.
    pub fn merge(&mut self, other: &JointHistogram) {
        assert_eq!(self.bins, other.bins, "bin counts differ");
        assert_eq!(self.a_range, other.a_range, "A intensity ranges differ");
        assert_eq!(self.b_range, other.b_range, "B intensity ranges differ");
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
    }

    /// Marginal entropy of image A (nats).
    pub fn entropy_a(&self) -> f64 {
        let mut h = 0.0;
        for ia in 0..self.bins {
            let p: f64 = (0..self.bins).map(|ib| self.counts[ia * self.bins + ib]).sum::<f64>() / self.total.max(1.0);
            if p > 0.0 {
                h -= p * p.ln();
            }
        }
        h
    }

    /// Marginal entropy of image B (nats).
    pub fn entropy_b(&self) -> f64 {
        let mut h = 0.0;
        for ib in 0..self.bins {
            let p: f64 = (0..self.bins).map(|ia| self.counts[ia * self.bins + ib]).sum::<f64>() / self.total.max(1.0);
            if p > 0.0 {
                h -= p * p.ln();
            }
        }
        h
    }

    /// Joint entropy (nats).
    pub fn joint_entropy(&self) -> f64 {
        let mut h = 0.0;
        for &c in &self.counts {
            if c > 0.0 {
                let p = c / self.total.max(1.0);
                h -= p * p.ln();
            }
        }
        h
    }

    /// Studholme's normalized mutual information `(H(A)+H(B)) / H(A,B)`.
    pub fn normalized_mutual_information(&self) -> f64 {
        let j = self.joint_entropy();
        if j <= 0.0 {
            return 0.0;
        }
        (self.entropy_a() + self.entropy_b()) / j
    }
}

/// Checkerboard composite of two same-grid volumes — the standard visual
/// QA for registration: alternating blocks show image A and image B, so
/// aligned structures continue across block edges and misalignments break
/// them. `block` is the tile edge in voxels.
pub fn checkerboard(a: &Volume<f32>, b: &Volume<f32>, block: usize) -> Volume<f32> {
    assert_eq!(a.dims(), b.dims());
    assert!(block >= 1);
    let d = a.dims();
    Volume::from_fn(d, a.spacing(), |x, y, z| {
        if (x / block + y / block + z / block).is_multiple_of(2) {
            *a.get(x, y, z)
        } else {
            *b.get(x, y, z)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::{Dims, Spacing};
    use rand::{Rng, SeedableRng};

    fn noise_volume(seed: u64) -> Volume<f32> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Volume::from_fn(Dims::new(16, 16, 16), Spacing::iso(1.0), |_, _, _| rng.gen_range(0.0f32..100.0))
    }

    #[test]
    fn ncc_one_for_identical_and_affine() {
        let v = noise_volume(4);
        assert!((ncc(&v, &v) - 1.0).abs() < 1e-12);
        let w = v.map(|&x| 2.0 * x + 5.0);
        assert!((ncc(&v, &w) - 1.0).abs() < 1e-9);
        let neg = v.map(|&x| -x);
        assert!((ncc(&v, &neg) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn ncc_constant_image_is_zero() {
        let v = noise_volume(5);
        let c = Volume::filled(v.dims(), v.spacing(), 1.0f32);
        assert_eq!(ncc(&v, &c), 0.0);
    }

    /// NMI of two same-grid volumes over `bins` bins per axis.
    fn nmi(a: &Volume<f32>, b: &Volume<f32>, bins: usize) -> f64 {
        let mut h = JointHistogram::new(bins, a.min_max(), b.min_max());
        for (&x, &y) in a.data().iter().zip(b.data()) {
            h.add(x, y);
        }
        h.normalized_mutual_information()
    }

    #[test]
    fn nmi_of_an_image_with_itself_is_two() {
        // H(A, A) = H(A), so (H(A) + H(A)) / H(A, A) = 2.
        let v = noise_volume(6);
        assert!((nmi(&v, &v, 32) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn nmi_higher_for_aligned_than_independent() {
        let v = noise_volume(7);
        let w = noise_volume(8); // independent noise
        let (aligned, indep) = (nmi(&v, &v, 32), nmi(&v, &w, 32));
        assert!(aligned > indep + 0.5, "{aligned} vs {indep}");
    }

    #[test]
    fn nmi_detects_an_intensity_remapping() {
        // NMI detects a functional (even non-linear monotonic)
        // relationship just as well as identity.
        let v = noise_volume(9);
        let w = v.map(|&x| (x * 0.7 + 3.0).sqrt());
        let noise = noise_volume(10);
        assert!(nmi(&v, &w, 32) > nmi(&v, &noise, 32));
    }

    #[test]
    fn nmi_at_least_one() {
        let v = noise_volume(11);
        let w = noise_volume(12);
        assert!(nmi(&v, &w, 16) >= 1.0 - 1e-9);
    }

    #[test]
    fn empty_histogram_is_zero_nmi() {
        let h = JointHistogram::new(8, (0.0, 1.0), (0.0, 1.0));
        assert_eq!(h.normalized_mutual_information(), 0.0);
        assert_eq!(h.total(), 0.0);
    }

    #[test]
    fn checkerboard_alternates_sources() {
        let a = Volume::filled(Dims::new(4, 4, 4), Spacing::iso(1.0), 1.0f32);
        let b = Volume::filled(Dims::new(4, 4, 4), Spacing::iso(1.0), 2.0f32);
        let cb = checkerboard(&a, &b, 2);
        assert_eq!(*cb.get(0, 0, 0), 1.0);
        assert_eq!(*cb.get(2, 0, 0), 2.0);
        assert_eq!(*cb.get(2, 2, 0), 1.0);
        assert_eq!(*cb.get(2, 2, 2), 2.0);
        // Identical inputs → identical output regardless of pattern.
        let same = checkerboard(&a, &a, 2);
        assert!(same.data().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn merged_partials_equal_single_accumulation() {
        // Per-thread accumulation contract: splitting the samples across
        // several histograms and merging must reproduce one-histogram
        // accumulation exactly (counts are integral, so no FP slack).
        let v = noise_volume(13);
        let w = noise_volume(14);
        let ra = v.min_max();
        let rb = w.min_max();
        let mut whole = JointHistogram::new(16, ra, rb);
        for (&a, &b) in v.data().iter().zip(w.data()) {
            whole.add(a, b);
        }
        let mut parts: Vec<JointHistogram> =
            (0..4).map(|_| JointHistogram::new(16, ra, rb)).collect();
        for (i, (&a, &b)) in v.data().iter().zip(w.data()).enumerate() {
            parts[i % 4].add(a, b);
        }
        let mut merged = JointHistogram::new(16, ra, rb);
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged.total(), whole.total());
        assert_eq!(
            merged.normalized_mutual_information(),
            whole.normalized_mutual_information()
        );
    }

    #[test]
    #[should_panic]
    fn merge_rejects_mismatched_binning() {
        let mut a = JointHistogram::new(8, (0.0, 1.0), (0.0, 1.0));
        let b = JointHistogram::new(16, (0.0, 1.0), (0.0, 1.0));
        a.merge(&b);
    }

    #[test]
    fn degenerate_range_bins_to_zero() {
        let mut h = JointHistogram::new(8, (1.0, 1.0), (0.0, 1.0));
        h.add(1.0, 0.5);
        assert_eq!(h.total(), 1.0);
    }
}
