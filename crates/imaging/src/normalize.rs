//! Intensity normalization across scans.
//!
//! The paper notes that "intrinsic MR scanner intensity variability causes
//! a small variation in the observed voxel intensities from scan to scan"
//! — and its k-NN model update implicitly assumes comparable intensity
//! scales between acquisitions. This module provides histogram matching
//! (monotone intensity remapping so a scan's cumulative distribution
//! matches a reference), the standard correction.

use crate::volume::Volume;

/// A monotone intensity mapping derived from two histograms.
#[derive(Debug, Clone)]
pub struct HistogramMatch {
    /// Source intensities at `n` quantiles.
    src_quantiles: Vec<f32>,
    /// Reference intensities at the same quantiles.
    ref_quantiles: Vec<f32>,
}

/// Compute `n_quantiles` evenly spaced quantiles of the voxel intensities
/// (ignoring non-finite values).
fn quantiles(vol: &Volume<f32>, n_quantiles: usize) -> Vec<f32> {
    let mut vals: Vec<f32> = vol.data().iter().copied().filter(|v| v.is_finite()).collect();
    vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert!(!vals.is_empty(), "empty volume");
    (0..n_quantiles)
        .map(|i| {
            let t = i as f64 / (n_quantiles - 1) as f64;
            vals[((vals.len() - 1) as f64 * t) as usize]
        })
        .collect()
}

impl HistogramMatch {
    /// Fit a mapping that makes `source`'s intensity distribution match
    /// `reference`'s. `n_quantiles ≥ 2` controls the resolution of the
    /// piecewise-linear transfer function.
    pub fn fit(source: &Volume<f32>, reference: &Volume<f32>, n_quantiles: usize) -> HistogramMatch {
        assert!(n_quantiles >= 2);
        HistogramMatch {
            src_quantiles: quantiles(source, n_quantiles),
            ref_quantiles: quantiles(reference, n_quantiles),
        }
    }

    /// Map one intensity through the transfer function (piecewise linear,
    /// clamped at the ends).
    pub fn map(&self, v: f32) -> f32 {
        let s = &self.src_quantiles;
        let r = &self.ref_quantiles;
        if v <= s[0] {
            return r[0];
        }
        if v >= *s.last().unwrap() {
            return *r.last().unwrap();
        }
        // Binary search for the containing segment.
        let mut i = match s.binary_search_by(|q| q.partial_cmp(&v).unwrap()) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        // Skip flat segments (duplicate quantiles).
        while i + 1 < s.len() && s[i + 1] <= s[i] {
            i += 1;
        }
        if i + 1 >= s.len() {
            return *r.last().unwrap();
        }
        let t = (v - s[i]) / (s[i + 1] - s[i]);
        r[i] + t * (r[i + 1] - r[i])
    }

    /// Apply the mapping to a whole volume.
    pub fn apply(&self, vol: &Volume<f32>) -> Volume<f32> {
        vol.map(|&v| self.map(v))
    }
}

/// Convenience: histogram-match `source` to `reference` with 64 quantiles.
pub fn match_histogram(source: &Volume<f32>, reference: &Volume<f32>) -> Volume<f32> {
    HistogramMatch::fit(source, reference, 64).apply(source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::{Dims, Spacing};
    use rand::{Rng, SeedableRng};

    fn noise(seed: u64, lo: f32, hi: f32) -> Volume<f32> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Volume::from_fn(Dims::new(12, 12, 12), Spacing::iso(1.0), |_, _, _| rng.gen_range(lo..hi))
    }

    #[test]
    fn identity_when_matching_to_self() {
        let v = noise(1, 0.0, 100.0);
        let matched = match_histogram(&v, &v);
        for (a, b) in v.data().iter().zip(matched.data()) {
            assert!((a - b).abs() < 1.0, "{a} vs {b}");
        }
    }

    #[test]
    fn undoes_affine_intensity_distortion() {
        // source = 2·ref + 30 (a gain/offset drift): matching recovers ref.
        let reference = noise(2, 10.0, 90.0);
        let source = reference.map(|&v| 2.0 * v + 30.0);
        let matched = match_histogram(&source, &reference);
        for (m, r) in matched.data().iter().zip(reference.data()) {
            assert!((m - r).abs() < 2.5, "{m} vs {r}");
        }
    }

    #[test]
    fn mapping_is_monotone() {
        let a = noise(3, 0.0, 50.0);
        let b = noise(4, 100.0, 300.0);
        let hm = HistogramMatch::fit(&a, &b, 32);
        let mut prev = f32::NEG_INFINITY;
        for i in 0..100 {
            let v = i as f32 * 0.6;
            let m = hm.map(v);
            assert!(m >= prev - 1e-4, "not monotone at {v}");
            prev = m;
        }
    }

    #[test]
    fn output_range_matches_reference() {
        let src = noise(5, 500.0, 900.0);
        let reference = noise(6, 0.0, 100.0);
        let matched = match_histogram(&src, &reference);
        let (lo, hi) = matched.min_max();
        let (rlo, rhi) = reference.min_max();
        assert!(lo >= rlo - 1.0 && hi <= rhi + 1.0, "[{lo}, {hi}] vs [{rlo}, {rhi}]");
    }

    #[test]
    fn constant_source_maps_flat() {
        let src = Volume::filled(Dims::new(4, 4, 4), Spacing::iso(1.0), 7.0f32);
        let reference = noise(7, 0.0, 10.0);
        let matched = match_histogram(&src, &reference);
        let first = matched.data()[0];
        assert!(matched.data().iter().all(|&v| (v - first).abs() < 1e-6));
    }

    #[test]
    fn improves_ssd_between_drifted_scans() {
        // Mean squared difference per voxel.
        let ssd = |a: &Volume<f32>, b: &Volume<f32>| {
            a.data().iter().zip(b.data()).map(|(&x, &y)| (x as f64 - y as f64).powi(2)).sum::<f64>()
                / a.data().len() as f64
        };
        let reference = noise(8, 20.0, 200.0);
        let drifted = reference.map(|&v| 1.3 * v - 15.0);
        let before = ssd(&drifted, &reference);
        let after = ssd(&match_histogram(&drifted, &reference), &reference);
        assert!(after < before * 0.05, "{before} → {after}");
    }
}
