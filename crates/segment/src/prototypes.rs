//! Prototype selection and the automatically-updated statistical model.
//!
//! "The statistical model is encoded implicitly by selecting groups of
//! prototypical voxels which represent the tissue classes to be segmented
//! intraoperatively (less than five minutes of user interaction). The
//! spatial location of the prototype voxels is recorded and is used to
//! update the statistical model automatically when further intraoperative
//! images are acquired and registered."
//!
//! Our stand-in for the interactive step samples prototype locations from
//! a reference segmentation (the patient-specific preoperative atlas).

use brainshift_imaging::Volume;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Recorded prototype voxel locations per tissue class.
#[derive(Debug, Clone)]
pub struct PrototypeModel {
    /// `(x, y, z, label)` of every prototype voxel.
    pub sites: Vec<(usize, usize, usize, u8)>,
}

impl PrototypeModel {
    /// Sample up to `per_class` prototype sites for each listed class from
    /// a reference segmentation, deterministically given `seed`.
    pub fn sample(reference_seg: &Volume<u8>, classes: &[u8], per_class: usize, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut sites = Vec::new();
        for &class in classes {
            let mut candidates: Vec<(usize, usize, usize)> = reference_seg
                .iter_voxels()
                .filter(|&(_, _, _, &l)| l == class)
                .map(|(x, y, z, _)| (x, y, z))
                .collect();
            candidates.shuffle(&mut rng);
            for &(x, y, z) in candidates.iter().take(per_class) {
                sites.push((x, y, z, class));
            }
        }
        PrototypeModel { sites }
    }

    /// Number of recorded prototype sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True when no sites are recorded.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Classes actually represented in the model.
    pub fn classes(&self) -> Vec<u8> {
        let mut c: Vec<u8> = self.sites.iter().map(|s| s.3).collect();
        c.sort_unstable();
        c.dedup();
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brainshift_imaging::volume::{Dims, Spacing};

    fn seg() -> Volume<u8> {
        Volume::from_fn(Dims::new(10, 10, 10), Spacing::iso(1.0), |x, _, _| if x < 5 { 1u8 } else { 2 })
    }

    #[test]
    fn samples_requested_count_per_class() {
        let m = PrototypeModel::sample(&seg(), &[1, 2], 20, 7);
        assert_eq!(m.len(), 40);
        assert_eq!(m.classes(), vec![1, 2]);
        for &(x, _, _, l) in &m.sites {
            assert_eq!(l, if x < 5 { 1 } else { 2 });
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = PrototypeModel::sample(&seg(), &[1, 2], 10, 3);
        let b = PrototypeModel::sample(&seg(), &[1, 2], 10, 3);
        assert_eq!(a.sites, b.sites);
    }

    #[test]
    fn missing_class_yields_fewer_sites() {
        let m = PrototypeModel::sample(&seg(), &[1, 9], 10, 3);
        assert_eq!(m.len(), 10); // class 9 absent
        assert_eq!(m.classes(), vec![1]);
    }

    #[test]
    fn class_with_few_voxels_capped() {
        let mut s = seg();
        // make label 3 appear exactly twice
        s.set(0, 0, 0, 3);
        s.set(1, 0, 0, 3);
        let m = PrototypeModel::sample(&s, &[3], 10, 3);
        assert_eq!(m.len(), 2);
    }
}
