//! Whole-volume intraoperative segmentation.
//!
//! The paper's classifier has a fixed half and a per-scan half. Fixed for
//! the surgery: the prototype *sites* and the "spatial localization
//! model" — one saturated distance channel per tissue class of the
//! registered preoperative segmentation. Per scan: the prototype
//! *intensities*, "updated automatically when further intraoperative
//! images are acquired", the kd-tree over them, and one k-NN query per
//! voxel. [`Classifier`] is that split: [`Classifier::new`] computes the
//! fixed half once, [`Classifier::classify`] is the per-scan call, and
//! [`segment_intraop`] is the same object built, used once and dropped.
//! The morphological cleanup of the brain mask (the active-surface
//! target must be a single solid region) is [`largest_component`].

use crate::error::SegmentError;
use crate::features::{FeatureMatrix, FeatureStack, MATRIX_SLAB};
use crate::knn::{KdTree, KnnScratch};
use crate::prototypes::PrototypeModel;
use brainshift_imaging::dtransform::label_distance_map;
use brainshift_imaging::{labels, Dims, Volume};
use brainshift_obs::Stopwatch;
use rayon::prelude::*;
use std::sync::Arc;

/// Segmentation configuration.
#[derive(Debug, Clone)]
pub struct SegmentConfig {
    /// Neighbours for the k-NN vote.
    pub k: usize,
    /// Saturation cap for distance channels (mm).
    pub distance_cap: f32,
    /// Weight of distance channels relative to intensity. Distances are
    /// in millimetres (resolution-independent): with intensity classes
    /// ~30–90 units apart, weight 0.75 lets a ~1 cm disagreement with the
    /// preoperative prior be overridden by clear intensity evidence while
    /// still regularizing ambiguous voxels.
    pub distance_weight: f32,
    /// Prototypes per class.
    pub per_class: usize,
    /// RNG seed for prototype sampling.
    pub seed: u64,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            k: 5,
            distance_cap: 30.0,
            distance_weight: 0.75,
            per_class: 150,
            seed: 0x5E6,
        }
    }
}

/// The once-per-surgery half of the classifier: prototype sites sampled
/// from the registered preoperative segmentation and one saturated
/// distance channel per model class. Immutable, so one instance serves
/// every scan of a surgery from any thread.
pub struct Classifier {
    k: usize,
    distance_weight: f32,
    /// Grid of the preoperative segmentation; every scan must arrive on it.
    dims: Dims,
    model: PrototypeModel,
    /// Shared into every scan's feature stack without copying.
    distance_channels: Vec<Arc<Volume<f32>>>,
}

/// One scan's classification, with what it cost.
#[derive(Debug)]
pub struct Classification {
    /// The label volume, on the scan's grid and spacing.
    pub labels: Volume<u8>,
    /// kd-tree leaf blocks scanned by this scan's k-NN queries.
    pub leaf_visits: u64,
    /// Seconds spent stacking the channels and flattening them into the
    /// per-voxel feature matrix.
    pub feature_s: f64,
    /// Seconds spent re-reading the prototypes and building the kd-tree.
    pub knn_build_s: f64,
    /// Seconds spent in the k-NN queries alone.
    pub knn_query_s: f64,
}

impl Classifier {
    /// Sample the prototype sites (every class present except the
    /// resection cavity) and compute the distance channels.
    pub fn new(preop_seg: &Volume<u8>, cfg: &SegmentConfig) -> Self {
        let mut classes = preop_seg.labels();
        classes.retain(|&c| c != labels::RESECTION);
        let model = PrototypeModel::sample(preop_seg, &classes, cfg.per_class, cfg.seed);
        let distance_channels = model
            .classes()
            .iter()
            .map(|&c| Arc::new(label_distance_map(preop_seg, c, cfg.distance_cap)))
            .collect();
        Classifier {
            k: cfg.k,
            distance_weight: cfg.distance_weight,
            dims: preop_seg.dims(),
            model,
            distance_channels,
        }
    }

    /// The recorded prototype sites.
    pub fn model(&self) -> &PrototypeModel {
        &self.model
    }

    /// The multichannel data set the paper describes for one scan: its
    /// intensity plus the per-surgery distance channels.
    pub fn feature_stack(&self, intensity: &Volume<f32>) -> Result<FeatureStack, SegmentError> {
        if intensity.dims() != self.dims {
            return Err(SegmentError::GridMismatch { expected: self.dims, got: intensity.dims() });
        }
        let mut fs = FeatureStack::from_intensity(intensity.clone());
        for chan in &self.distance_channels {
            fs.push_shared_channel(chan.clone(), self.distance_weight);
        }
        Ok(fs)
    }

    /// Classify one registered intraoperative scan. The prototype
    /// features are re-read from this scan at the recorded sites — the
    /// paper's automatic model update — so the interactive selection
    /// happens once per surgery.
    pub fn classify(&self, intensity: &Volume<f32>) -> Result<Classification, SegmentError> {
        let mut sw = Stopwatch::wall();
        let fs = self.feature_stack(intensity)?;
        let matrix = fs.to_matrix();
        let feature_s = sw.lap_s();
        let tree = KdTree::build(self.model.extract(&fs))?;
        let knn_build_s = sw.lap_s();
        let (labels, leaf_visits) = classify_matrix(&matrix, &tree, self.k);
        let knn_query_s = sw.lap_s();
        Ok(Classification { labels, leaf_visits, feature_s, knn_build_s, knn_query_s })
    }
}

/// Classify every voxel of a flattened feature matrix, in parallel over
/// voxel slabs with one reusable k-NN scratch per slab. Returns the label
/// volume (on the matrix's grid and spacing) and the kd-tree leaf blocks
/// scanned.
pub fn classify_matrix(matrix: &FeatureMatrix, tree: &KdTree, k: usize) -> (Volume<u8>, u64) {
    let d = matrix.dims();
    let mut data = vec![0u8; d.len()];
    let leaf_visits = data
        .par_chunks_mut(MATRIX_SLAB)
        .enumerate()
        .map(|(s, chunk)| {
            let base = s * MATRIX_SLAB;
            let mut scratch = KnnScratch::new();
            for (i, out) in chunk.iter_mut().enumerate() {
                *out = tree.classify_with(&mut scratch, matrix.row(base + i), k);
            }
            scratch.leaf_visits
        })
        .sum();
    (Volume::from_vec(d, matrix.spacing(), data), leaf_visits)
}

/// Serial reference classifier: identical output to [`classify_matrix`]
/// by construction (per-voxel k-NN is a pure function, and slab order
/// never enters the result). Kept as the oracle for the thread-count
/// determinism tests.
pub fn classify_matrix_serial(matrix: &FeatureMatrix, tree: &KdTree, k: usize) -> (Volume<u8>, u64) {
    let d = matrix.dims();
    let mut scratch = KnnScratch::new();
    let mut data = vec![0u8; d.len()];
    for (idx, out) in data.iter_mut().enumerate() {
        *out = tree.classify_with(&mut scratch, matrix.row(idx), k);
    }
    (Volume::from_vec(d, matrix.spacing(), data), scratch.leaf_visits)
}

/// End-to-end intraoperative segmentation of a single scan: a
/// [`Classifier`] built, used once and dropped. Returns the label volume
/// (on the intraop grid/spacing).
pub fn segment_intraop(
    intraop_intensity: &Volume<f32>,
    preop_seg: &Volume<u8>,
    cfg: &SegmentConfig,
) -> Result<Volume<u8>, SegmentError> {
    Ok(Classifier::new(preop_seg, cfg).classify(intraop_intensity)?.labels)
}

/// Largest 6-connected component of `mask`, as a new mask. Used to clean
/// up the brain segmentation before surface extraction.
pub fn largest_component(mask: &Volume<bool>) -> Volume<bool> {
    let d = mask.dims();
    let mut comp = vec![u32::MAX; d.len()];
    let mut sizes: Vec<usize> = Vec::new();
    let mut stack = Vec::new();
    for start in 0..d.len() {
        if !mask.data()[start] || comp[start] != u32::MAX {
            continue;
        }
        let id = sizes.len() as u32;
        let mut size = 0usize;
        stack.push(start);
        comp[start] = id;
        while let Some(idx) = stack.pop() {
            size += 1;
            let (x, y, z) = d.coords(idx);
            let mut visit = |nx: i64, ny: i64, nz: i64| {
                if d.contains(nx, ny, nz) {
                    let ni = d.index(nx as usize, ny as usize, nz as usize);
                    if mask.data()[ni] && comp[ni] == u32::MAX {
                        comp[ni] = id;
                        stack.push(ni);
                    }
                }
            };
            visit(x as i64 - 1, y as i64, z as i64);
            visit(x as i64 + 1, y as i64, z as i64);
            visit(x as i64, y as i64 - 1, z as i64);
            visit(x as i64, y as i64 + 1, z as i64);
            visit(x as i64, y as i64, z as i64 - 1);
            visit(x as i64, y as i64, z as i64 + 1);
        }
        sizes.push(size);
    }
    if sizes.is_empty() {
        return mask.clone();
    }
    // `>=` keeps the last equally-large component, matching the previous
    // `max_by_key` tie behaviour.
    let mut biggest = 0u32;
    let mut best_size = 0usize;
    for (i, &s) in sizes.iter().enumerate() {
        if s >= best_size {
            best_size = s;
            biggest = i as u32;
        }
    }
    let data: Vec<bool> = comp.iter().map(|&c| c == biggest).collect();
    Volume::from_vec(d, mask.spacing(), data)
}

/// Dice overlap coefficient between two masks.
pub fn dice(a: &Volume<bool>, b: &Volume<bool>) -> f64 {
    assert_eq!(a.dims(), b.dims());
    let mut inter = 0usize;
    let mut na = 0usize;
    let mut nb = 0usize;
    for (&x, &y) in a.data().iter().zip(b.data()) {
        if x {
            na += 1;
        }
        if y {
            nb += 1;
        }
        if x && y {
            inter += 1;
        }
    }
    if na + nb == 0 {
        return 1.0;
    }
    2.0 * inter as f64 / (na + nb) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use brainshift_imaging::phantom::{generate_case, BrainShiftConfig, PhantomConfig};
    use brainshift_imaging::volume::Spacing;

    #[test]
    fn segments_phantom_intraop_scan_well() {
        let cfg = PhantomConfig {
            dims: Dims::new(32, 32, 24),
            spacing: Spacing::iso(4.0),
            ..Default::default()
        };
        let case = generate_case(&cfg, &BrainShiftConfig { resect_tumor: false, ..Default::default() });
        // Classify the intraop scan using the PREOP segmentation as the
        // spatial prior (the realistic setting: brain has shifted a bit).
        let seg = segment_intraop(&case.intraop.intensity, &case.preop.labels, &SegmentConfig::default())
            .expect("phantom prototypes are valid");
        // Compare against the intraop ground truth.
        let gt = &case.intraop.labels;
        let agree = gt
            .data()
            .iter()
            .zip(seg.data())
            .filter(|(a, b)| a == b)
            .count() as f64
            / gt.data().len() as f64;
        assert!(agree > 0.85, "voxel agreement only {agree}");
        // Brain-specific Dice.
        let gt_brain = gt.map(|&l| labels::is_brain_tissue(l));
        let seg_brain = seg.map(|&l| labels::is_brain_tissue(l));
        let d = dice(&gt_brain, &seg_brain);
        assert!(d > 0.8, "brain dice {d}");
    }

    #[test]
    fn classification_keeps_anisotropic_spacing() {
        // Regression: the label volume used to come back with
        // Spacing::iso(1.0) regardless of the input grid.
        let d = Dims::new(8, 8, 6);
        let sp = Spacing::new(0.9, 0.9, 3.0);
        let intensity = Volume::from_fn(d, sp, |x, _, _| if x < 4 { 10.0 } else { 90.0 });
        let seg = Volume::from_fn(d, sp, |x, _, _| if x < 4 { 1u8 } else { 2 });
        let cfg = SegmentConfig { per_class: 20, ..Default::default() };
        let out = segment_intraop(&intensity, &seg, &cfg).expect("valid prototypes");
        assert_eq!(out.spacing(), sp, "classification must keep the intraop spacing");
    }

    #[test]
    fn scan_on_a_foreign_grid_is_a_typed_error() {
        // Regression: this used to panic on the feature stack's grid assert.
        let sp = Spacing::iso(4.0);
        let seg_dims = Dims::new(32, 32, 24);
        let scan_dims = Dims::new(30, 32, 24);
        let seg = Volume::from_fn(seg_dims, sp, |x, _, _| if x < 16 { 1u8 } else { 2 });
        let intensity = Volume::from_fn(scan_dims, sp, |x, _, _| if x < 16 { 10.0 } else { 90.0 });
        let err = segment_intraop(&intensity, &seg, &SegmentConfig::default()).unwrap_err();
        assert_eq!(err, SegmentError::GridMismatch { expected: seg_dims, got: scan_dims });
    }

    #[test]
    fn largest_component_removes_islands() {
        let d = Dims::new(10, 10, 10);
        let mask = Volume::from_fn(d, Spacing::iso(1.0), |x, y, z| {
            // Big blob + a far corner island.
            (x < 6 && y < 6 && z < 6) || (x == 9 && y == 9 && z == 9)
        });
        let lc = largest_component(&mask);
        assert!(!*lc.get(9, 9, 9));
        assert!(*lc.get(0, 0, 0));
        let count = lc.data().iter().filter(|&&b| b).count();
        assert_eq!(count, 216);
    }

    #[test]
    fn largest_component_empty_mask() {
        let mask: Volume<bool> = Volume::filled(Dims::new(4, 4, 4), Spacing::iso(1.0), false);
        let lc = largest_component(&mask);
        assert!(lc.data().iter().all(|&b| !b));
    }

    #[test]
    fn dice_of_identical_masks_is_one() {
        let mask = Volume::from_fn(Dims::new(6, 6, 6), Spacing::iso(1.0), |x, _, _| x < 3);
        assert_eq!(dice(&mask, &mask), 1.0);
        let empty: Volume<bool> = Volume::filled(Dims::new(6, 6, 6), Spacing::iso(1.0), false);
        assert_eq!(dice(&mask, &empty), 0.0);
        assert_eq!(dice(&empty, &empty), 1.0);
    }
}
