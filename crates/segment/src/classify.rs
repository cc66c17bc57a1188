//! Whole-volume intraoperative segmentation.
//!
//! Combines the feature stack, prototype model and k-NN classifier into
//! the paper's intraoperative segmentation step, with a morphological
//! cleanup of the brain mask (the active-surface target must be a single
//! solid region).
//!
//! # Incremental re-classification
//!
//! Between consecutive intraoperative scans most of the head is static:
//! only tissue near the resection and the shifting brain surface changes
//! appreciably. [`classify_volume_incremental`] exploits this by keeping
//! the previous scan's flattened feature matrix and label volume, and
//! re-running k-NN only for voxels whose weighted feature vector moved by
//! more than a threshold since the cached scan. The invariant: at
//! threshold 0 (and an unchanged prototype model) the output is
//! **bitwise identical** to a full classification — a voxel is skipped
//! only when its feature row is exactly the cached row, and k-NN is a
//! deterministic pure function of (row, tree, k).

use crate::error::SegmentError;
use crate::features::{FeatureMatrix, FeatureStack, MATRIX_SLAB};
use crate::knn::{KdTree, KnnScratch};
use crate::prototypes::PrototypeModel;
use brainshift_imaging::{labels, Volume};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

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
    /// Incremental re-classification threshold in weighted feature units:
    /// a voxel is re-classified only when some channel moved more than
    /// this since the cached scan. `0.0` (the default) keeps the output
    /// bitwise identical to a full classification; small positive values
    /// (a few intensity units, i.e. well under the ~30-unit class gaps)
    /// trade exactness for skipping noise-only voxels.
    pub incremental_threshold: f32,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            k: 5,
            distance_cap: 30.0,
            distance_weight: 0.75,
            per_class: 150,
            seed: 0x5E6,
            incremental_threshold: 0.0,
        }
    }
}

/// Build the multichannel feature stack the paper describes: intensity +
/// one saturated distance channel per class present in the (registered)
/// preoperative segmentation.
pub fn build_feature_stack(
    intraop_intensity: &Volume<f32>,
    preop_seg: &Volume<u8>,
    classes: &[u8],
    cfg: &SegmentConfig,
) -> FeatureStack {
    let mut fs = FeatureStack::from_intensity(intraop_intensity.clone());
    for &c in classes {
        fs.push_distance_channel(preop_seg, c, cfg.distance_cap, cfg.distance_weight);
    }
    fs
}

/// Classify every voxel with k-NN over the feature stack. The label
/// volume is returned on the stack's own grid and spacing.
pub fn classify_volume(features: &FeatureStack, tree: &KdTree, k: usize) -> Volume<u8> {
    classify_matrix(&features.to_matrix(), tree, k)
}

/// Classify every voxel of a flattened feature matrix, in parallel over
/// voxel slabs with one reusable k-NN scratch per slab.
pub fn classify_matrix(matrix: &FeatureMatrix, tree: &KdTree, k: usize) -> Volume<u8> {
    let d = matrix.dims();
    let mut data = vec![0u8; d.len()];
    data.par_chunks_mut(MATRIX_SLAB).enumerate().for_each(|(s, chunk)| {
        let base = s * MATRIX_SLAB;
        let mut scratch = KnnScratch::new();
        for (i, out) in chunk.iter_mut().enumerate() {
            *out = tree.classify_with(&mut scratch, matrix.row(base + i), k);
        }
    });
    Volume::from_vec(d, matrix.spacing(), data)
}

/// Serial reference classifier: identical output to [`classify_matrix`]
/// by construction (per-voxel k-NN is a pure function, and slab order
/// never enters the result). Kept as the oracle for the thread-count
/// determinism tests.
pub fn classify_matrix_serial(matrix: &FeatureMatrix, tree: &KdTree, k: usize) -> Volume<u8> {
    let d = matrix.dims();
    let mut scratch = KnnScratch::new();
    let mut data = vec![0u8; d.len()];
    for (idx, out) in data.iter_mut().enumerate() {
        *out = tree.classify_with(&mut scratch, matrix.row(idx), k);
    }
    Volume::from_vec(d, matrix.spacing(), data)
}

/// The previous scan's classification state, kept by the caller (e.g.
/// `PreparedSurgery`) to make the next scan incremental.
#[derive(Debug, Clone)]
pub struct IncrementalCache {
    /// Flattened weighted features of the cached scan.
    pub matrix: FeatureMatrix,
    /// Labels produced for the cached scan (row-major, same grid).
    pub labels: Vec<u8>,
    /// Fingerprint of the kd-tree that produced `labels`.
    pub tree_fingerprint: u64,
    /// `k` used for `labels`.
    pub k: usize,
}

/// Outcome of an incremental classification pass.
#[derive(Debug)]
pub struct IncrementalClassification {
    /// The label volume (on the matrix's grid and spacing).
    pub labels: Volume<u8>,
    /// Voxels actually sent through k-NN this scan.
    pub reclassified: usize,
    /// Total voxels in the volume.
    pub total: usize,
    /// Whether the previous scan's cache was accepted.
    pub used_cache: bool,
    /// kd-tree leaf blocks scanned during this pass.
    pub leaf_visits: u64,
    /// State to hand to the next scan.
    pub cache: IncrementalCache,
}

/// Classify a feature matrix, reusing the previous scan's labels for
/// voxels whose features moved by at most `threshold` (weighted units).
///
/// The cache is accepted only when the grid/channel shape and `k` match,
/// and — in exact mode (`threshold == 0`) — when the kd-tree fingerprint
/// matches too: with a changed prototype model, an unchanged feature row
/// no longer implies an unchanged label. At `threshold > 0` the caller
/// has already accepted approximation, so model drift from re-extracted
/// prototypes is tolerated. A rejected cache falls back to a full pass.
pub fn classify_volume_incremental(
    features: &FeatureStack,
    tree: &KdTree,
    k: usize,
    threshold: f32,
    prev: Option<IncrementalCache>,
) -> IncrementalClassification {
    let matrix = features.to_matrix();
    let d = matrix.dims();
    let total = d.len();
    let usable = prev.as_ref().is_some_and(|c| {
        c.matrix.same_shape(&matrix)
            && c.k == k
            && (threshold > 0.0 || c.tree_fingerprint == tree.fingerprint())
    });
    let leaf_visits = AtomicU64::new(0);
    let reclassified = AtomicUsize::new(0);
    let mut data = vec![0u8; total];
    if let (true, Some(cache)) = (usable, prev.as_ref()) {
        data.par_chunks_mut(MATRIX_SLAB).enumerate().for_each(|(s, chunk)| {
            let base = s * MATRIX_SLAB;
            let mut scratch = KnnScratch::new();
            let mut changed = 0usize;
            for (i, out) in chunk.iter_mut().enumerate() {
                let idx = base + i;
                let delta = matrix.row_delta_max(&cache.matrix, idx);
                // `!(delta <= threshold)` so NaN deltas re-classify.
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                if !(delta <= threshold) {
                    *out = tree.classify_with(&mut scratch, matrix.row(idx), k);
                    changed += 1;
                } else {
                    *out = cache.labels[idx];
                }
            }
            leaf_visits.fetch_add(scratch.leaf_visits, Ordering::Relaxed);
            reclassified.fetch_add(changed, Ordering::Relaxed);
        });
    } else {
        data.par_chunks_mut(MATRIX_SLAB).enumerate().for_each(|(s, chunk)| {
            let base = s * MATRIX_SLAB;
            let mut scratch = KnnScratch::new();
            for (i, out) in chunk.iter_mut().enumerate() {
                *out = tree.classify_with(&mut scratch, matrix.row(base + i), k);
            }
            leaf_visits.fetch_add(scratch.leaf_visits, Ordering::Relaxed);
        });
        reclassified.store(total, Ordering::Relaxed);
    }
    let labels = Volume::from_vec(d, matrix.spacing(), data.clone());
    IncrementalClassification {
        labels,
        reclassified: reclassified.into_inner(),
        total,
        used_cache: usable,
        leaf_visits: leaf_visits.into_inner(),
        cache: IncrementalCache { matrix, labels: data, tree_fingerprint: tree.fingerprint(), k },
    }
}

/// End-to-end intraoperative segmentation: prototypes sampled from the
/// registered preoperative segmentation, model extracted from the current
/// scan, k-NN over all voxels. Returns the label volume (on the intraop
/// grid/spacing).
pub fn segment_intraop(
    intraop_intensity: &Volume<f32>,
    preop_seg: &Volume<u8>,
    cfg: &SegmentConfig,
) -> Result<Volume<u8>, SegmentError> {
    let mut classes = preop_seg.labels();
    classes.retain(|&c| c != labels::RESECTION);
    let model = PrototypeModel::sample(preop_seg, &classes, cfg.per_class, cfg.seed);
    segment_intraop_with_model(intraop_intensity, preop_seg, &model, cfg)
}

/// Segmentation with an existing prototype model — the paper's automatic
/// model update: "The spatial location of the prototype voxels is
/// recorded and is used to update the statistical model automatically
/// when further intraoperative images are acquired and registered." The
/// recorded sites are re-read from the *current* scan's feature stack, so
/// the interactive selection happens once per surgery.
pub fn segment_intraop_with_model(
    intraop_intensity: &Volume<f32>,
    preop_seg: &Volume<u8>,
    model: &PrototypeModel,
    cfg: &SegmentConfig,
) -> Result<Volume<u8>, SegmentError> {
    let classes = model.classes();
    let fs = build_feature_stack(intraop_intensity, preop_seg, &classes, cfg);
    let protos = model.extract(&fs);
    let tree = KdTree::build(protos)?;
    Ok(classify_volume(&fs, &tree, cfg.k))
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
    use brainshift_imaging::volume::{Dims, Spacing};

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
        let fs = build_feature_stack(&intensity, &seg, &[1, 2], &cfg);
        let model = PrototypeModel::sample(&seg, &[1, 2], cfg.per_class, cfg.seed);
        let tree = KdTree::build(model.extract(&fs)).expect("valid prototypes");
        let out = classify_volume(&fs, &tree, cfg.k);
        assert_eq!(out.spacing(), sp, "classification must keep the intraop spacing");
        let end_to_end = segment_intraop(&intensity, &seg, &cfg).expect("valid prototypes");
        assert_eq!(end_to_end.spacing(), sp);
    }

    #[test]
    fn incremental_threshold_zero_is_bitwise_identical() {
        let d = Dims::new(10, 10, 8);
        let sp = Spacing::iso(2.0);
        let seg = Volume::from_fn(d, sp, |x, _, _| if x < 5 { 1u8 } else { 2 });
        let cfg = SegmentConfig { per_class: 30, ..Default::default() };
        let model = PrototypeModel::sample(&seg, &[1, 2], cfg.per_class, cfg.seed);
        let make_fs = |phase: f32| {
            let intensity = Volume::from_fn(d, sp, |x, y, z| {
                let base = if x < 5 { 20.0 } else { 80.0 };
                base + ((x + 2 * y + 3 * z) as f32 * phase).sin() * 5.0
            });
            build_feature_stack(&intensity, &seg, &[1, 2], &cfg)
        };
        let mut cache: Option<IncrementalCache> = None;
        for scan in 0..3 {
            let fs = make_fs(0.1 + scan as f32 * 0.05);
            let tree = KdTree::build(model.extract(&fs)).expect("valid prototypes");
            let full = classify_volume(&fs, &tree, cfg.k);
            let inc = classify_volume_incremental(&fs, &tree, cfg.k, 0.0, cache.take());
            assert_eq!(inc.labels.data(), full.data(), "scan {scan} diverged");
            assert_eq!(inc.total, d.len());
            cache = Some(inc.cache);
        }
    }

    #[test]
    fn incremental_skips_static_voxels_and_counts_changes() {
        let d = Dims::new(8, 8, 8);
        let sp = Spacing::iso(1.0);
        let seg = Volume::from_fn(d, sp, |x, _, _| if x < 4 { 1u8 } else { 2 });
        let cfg = SegmentConfig { per_class: 20, ..Default::default() };
        let model = PrototypeModel::sample(&seg, &[1, 2], cfg.per_class, cfg.seed);
        let intensity = Volume::from_fn(d, sp, |x, _, _| if x < 4 { 10.0 } else { 90.0 });
        let fs = build_feature_stack(&intensity, &seg, &[1, 2], &cfg);
        let tree = KdTree::build(model.extract(&fs)).expect("valid prototypes");
        let first = classify_volume_incremental(&fs, &tree, cfg.k, 0.0, None);
        assert!(!first.used_cache);
        assert_eq!(first.reclassified, d.len());
        // Identical scan: with the same tree, nothing should re-classify.
        let second = classify_volume_incremental(&fs, &tree, cfg.k, 0.0, Some(first.cache));
        assert!(second.used_cache);
        assert_eq!(second.reclassified, 0);
        assert_eq!(second.labels.data(), first.labels.data());
        // Perturb one voxel beyond any threshold: exactly one re-classify.
        let mut moved = intensity.clone();
        moved.set(2, 3, 4, 55.0);
        let fs2 = build_feature_stack(&moved, &seg, &[1, 2], &cfg);
        let third = classify_volume_incremental(&fs2, &tree, cfg.k, 0.0, Some(second.cache));
        assert!(third.used_cache);
        assert_eq!(third.reclassified, 1);
    }

    #[test]
    fn incremental_exact_mode_rejects_changed_tree() {
        let d = Dims::new(6, 6, 6);
        let sp = Spacing::iso(1.0);
        let seg = Volume::from_fn(d, sp, |x, _, _| if x < 3 { 1u8 } else { 2 });
        let cfg = SegmentConfig { per_class: 10, ..Default::default() };
        let model = PrototypeModel::sample(&seg, &[1, 2], cfg.per_class, cfg.seed);
        let intensity = Volume::from_fn(d, sp, |x, _, _| if x < 3 { 10.0 } else { 90.0 });
        let fs = build_feature_stack(&intensity, &seg, &[1, 2], &cfg);
        let tree = KdTree::build(model.extract(&fs)).expect("valid prototypes");
        let first = classify_volume_incremental(&fs, &tree, cfg.k, 0.0, None);
        // A different prototype model (reseeded) ⇒ different fingerprint ⇒
        // exact mode must fall back to a full pass.
        let model2 = PrototypeModel::sample(&seg, &[1, 2], cfg.per_class, cfg.seed + 1);
        let tree2 = KdTree::build(model2.extract(&fs)).expect("valid prototypes");
        let second = classify_volume_incremental(&fs, &tree2, cfg.k, 0.0, Some(first.cache.clone()));
        assert!(!second.used_cache, "fingerprint mismatch must invalidate exact mode");
        assert_eq!(second.reclassified, d.len());
        // Thresholded mode tolerates the drifted tree and reuses labels.
        let third = classify_volume_incremental(&fs, &tree2, cfg.k, 0.5, Some(first.cache));
        assert!(third.used_cache);
        assert_eq!(third.reclassified, 0);
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
