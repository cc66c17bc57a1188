//! Intraoperative segmentation, volume or band.
//!
//! "The intraoperative image data then together with the spatial
//! localization model forms a multichannel 3D data set. Each voxel of the
//! combined data sets is then represented by a vector having components
//! from the intraoperative MR scan [and] the spatially varying tissue
//! location model..." Here a voxel's feature row is its scan intensity
//! followed by the weighted distance channels, read in place for each
//! listed voxel; no multichannel volume is built.
//!
//! The paper's classifier has a fixed half and a per-scan half. Fixed for
//! the surgery: the prototype *sites* and the "spatial localization
//! model" — one saturated distance channel per tissue class of the
//! registered preoperative segmentation. Per scan: the prototype
//! *intensities*, "updated automatically when further intraoperative
//! images are acquired", the kd-tree over them, and one k-NN query per
//! listed voxel. [`Classifier`] is that split: [`Classifier::new`]
//! computes the fixed half once and [`Classifier::classify`] is the
//! per-scan call. A caller that needs labels only near a
//! boundary lists those voxels; every other voxel keeps a fill label.
//! The morphological cleanup of the brain mask (the active-surface
//! target must be a single solid region) is [`largest_component`].

use crate::error::SegmentError;
use crate::knn::{KdTree, KnnScratch, Prototype};
use crate::prototypes::PrototypeModel;
use brainshift_imaging::dtransform::label_distance_map;
use brainshift_imaging::{labels, Dims, Volume};
use brainshift_obs::Stopwatch;
use rayon::prelude::*;
use std::sync::Arc;

/// Saturation cap for distance channels (mm).
const DISTANCE_CAP: f32 = 30.0;

/// Weight of distance channels relative to intensity. Distances are in
/// millimetres (resolution-independent): with intensity classes ~30–90
/// units apart, weight 0.75 lets a ~1 cm disagreement with the
/// preoperative prior be overridden by clear intensity evidence while
/// still regularizing ambiguous voxels.
const DISTANCE_WEIGHT: f32 = 0.75;

/// RNG seed for prototype sampling.
const PROTOTYPE_SEED: u64 = 0x5E6;

/// Segmentation configuration.
#[derive(Debug, Clone)]
pub struct SegmentConfig {
    /// Neighbours for the k-NN vote.
    pub k: usize,
    /// Prototypes per class.
    pub per_class: usize,
    /// Half-width (mm) of the band around the reference brain boundary
    /// that a served scan classifies; voxels outside it keep their
    /// reference label. The surgery widens it by the reach of the
    /// surface's sampling, and a scan whose surface read a value the band
    /// could have changed is classified again over the whole volume, so
    /// this sets speed, never output bits. 12 mm is the top of the
    /// 5–12 mm peak shifts the `keypoints` scenario class draws;
    /// `f32::INFINITY` classifies the whole volume.
    pub band_mm: f32,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            k: 5,
            per_class: 150,
            band_mm: 12.0,
        }
    }
}

/// The once-per-surgery half of the classifier: prototype sites sampled
/// from the registered preoperative segmentation and one saturated
/// distance channel per model class. Immutable, so one instance serves
/// every scan of a surgery from any thread.
pub struct Classifier {
    k: usize,
    /// Grid of the preoperative segmentation; every scan must arrive on it.
    dims: Dims,
    model: PrototypeModel,
    /// Read in place by every scan's feature rows.
    distance_channels: Vec<Arc<Volume<f32>>>,
}

/// One scan's classification, with what it cost.
#[derive(Debug)]
pub struct Classification {
    /// The label volume, on the scan's grid and spacing: the k-NN label
    /// at every listed voxel, the fill label everywhere else.
    pub labels: Volume<u8>,
    /// kd-tree leaf blocks scanned by this scan's k-NN queries.
    pub leaf_visits: u64,
    /// Seconds spent checking the grids and copying the fill labels.
    pub feature_s: f64,
    /// Seconds spent re-reading the prototypes and building the kd-tree.
    pub knn_build_s: f64,
    /// Seconds spent in the k-NN pass: gathering each listed voxel's
    /// feature row, its query and the label scatter.
    pub knn_query_s: f64,
}

/// One scan's weighted feature rows, read in place: the scan's
/// intensity (weight 1) followed by the per-surgery distance channels
/// (each weighted by `DISTANCE_WEIGHT`): the paper's multichannel data
/// set, one voxel at a time.
struct FeatureRows<'a> {
    intensity: &'a [f32],
    channels: &'a [Arc<Volume<f32>>],
}

impl FeatureRows<'_> {
    fn width(&self) -> usize {
        1 + self.channels.len()
    }

    /// Write voxel `idx`'s row into `row` (of length [`Self::width`]).
    fn gather(&self, idx: usize, row: &mut [f32]) {
        row[0] = self.intensity[idx];
        for (r, chan) in row[1..].iter_mut().zip(self.channels) {
            *r = chan.data()[idx] * DISTANCE_WEIGHT;
        }
    }
}

/// Voxels per slab of the k-NN pass. The thread pool splits the slab
/// list into one contiguous run per thread, so a slab is kept small
/// against a band of a few thousand voxels: the runs then differ by at
/// most one slab.
const VOXEL_SLAB: usize = 512;

/// The k-NN pass over `voxels`, in parallel over fixed slabs of the list
/// with one reusable scratch and row buffer per slab: `out[i]` becomes
/// the label of `voxels[i]`. Returns the kd-tree leaf blocks scanned.
fn query_parallel(rows: &FeatureRows, tree: &KdTree, k: usize, voxels: &[usize], out: &mut [u8]) -> u64 {
    out.par_chunks_mut(VOXEL_SLAB)
        .zip(voxels.par_chunks(VOXEL_SLAB))
        .map(|(out, voxels)| {
            let mut scratch = KnnScratch::new();
            let mut row = vec![0.0f32; rows.width()];
            for (o, &v) in out.iter_mut().zip(voxels) {
                rows.gather(v, &mut row);
                *o = tree.classify_with(&mut scratch, &row, k);
            }
            scratch.leaf_visits
        })
        .sum()
}

/// Serial reference for [`query_parallel`]: identical output by
/// construction (per-voxel k-NN is a pure function, and slab order never
/// enters the result). Kept as the oracle for the thread-count
/// determinism tests.
fn query_serial(rows: &FeatureRows, tree: &KdTree, k: usize, voxels: &[usize], out: &mut [u8]) -> u64 {
    let mut scratch = KnnScratch::new();
    let mut row = vec![0.0f32; rows.width()];
    for (o, &v) in out.iter_mut().zip(voxels) {
        rows.gather(v, &mut row);
        *o = tree.classify_with(&mut scratch, &row, k);
    }
    scratch.leaf_visits
}

type QueryPass = fn(&FeatureRows, &KdTree, usize, &[usize], &mut [u8]) -> u64;

impl Classifier {
    /// Sample the prototype sites (every class present except the
    /// resection cavity) and compute the distance channels.
    pub fn new(preop_seg: &Volume<u8>, cfg: &SegmentConfig) -> Self {
        let mut classes = preop_seg.labels();
        classes.retain(|&c| c != labels::RESECTION);
        let model = PrototypeModel::sample(preop_seg, &classes, cfg.per_class, PROTOTYPE_SEED);
        let distance_channels = model
            .classes()
            .iter()
            .map(|&c| Arc::new(label_distance_map(preop_seg, c, DISTANCE_CAP)))
            .collect();
        Classifier {
            k: cfg.k,
            dims: preop_seg.dims(),
            model,
            distance_channels,
        }
    }

    /// Classify the listed voxels of one registered intraoperative scan;
    /// every other voxel takes its label from `fill`. Each listed voxel
    /// gets the label a pass over the whole volume would give it. The
    /// prototype features are re-read from this scan at the recorded
    /// sites — the paper's automatic model update — so the interactive
    /// selection happens once per surgery.
    pub fn classify(
        &self,
        intensity: &Volume<f32>,
        voxels: &[usize],
        fill: &Volume<u8>,
    ) -> Result<Classification, SegmentError> {
        self.classify_by(intensity, voxels, fill, query_parallel)
    }

    /// [`Self::classify`] with a serial k-NN pass: the oracle the
    /// thread-count determinism tests compare the parallel pass with
    /// (`crates/segment/tests/classify_props.rs`).
    pub fn classify_serial(
        &self,
        intensity: &Volume<f32>,
        voxels: &[usize],
        fill: &Volume<u8>,
    ) -> Result<Classification, SegmentError> {
        self.classify_by(intensity, voxels, fill, query_serial)
    }

    fn classify_by(
        &self,
        intensity: &Volume<f32>,
        voxels: &[usize],
        fill: &Volume<u8>,
        query: QueryPass,
    ) -> Result<Classification, SegmentError> {
        let mut sw = Stopwatch::wall();
        self.check_grid(intensity.dims())?;
        self.check_grid(fill.dims())?;
        let len = self.dims.len();
        if let Some(&index) = voxels.iter().find(|&&v| v >= len) {
            return Err(SegmentError::VoxelOutOfGrid { index, len });
        }
        let rows = FeatureRows {
            intensity: intensity.data(),
            channels: &self.distance_channels,
        };
        let mut labels = Volume::from_vec(self.dims, intensity.spacing(), fill.data().to_vec());
        let feature_s = sw.lap_s();
        let prototypes = self
            .model
            .sites
            .iter()
            .map(|&(x, y, z, label)| {
                let mut features = vec![0.0f32; rows.width()];
                rows.gather(self.dims.index(x, y, z), &mut features);
                Prototype { features, label }
            })
            .collect();
        let tree = KdTree::build(prototypes)?;
        let knn_build_s = sw.lap_s();
        let mut out = vec![0u8; voxels.len()];
        let leaf_visits = query(&rows, &tree, self.k, voxels, &mut out);
        let data = labels.data_mut();
        for (&v, &l) in voxels.iter().zip(&out) {
            data[v] = l;
        }
        let knn_query_s = sw.lap_s();
        Ok(Classification { labels, leaf_visits, feature_s, knn_build_s, knn_query_s })
    }

    fn check_grid(&self, got: Dims) -> Result<(), SegmentError> {
        if got != self.dims {
            return Err(SegmentError::GridMismatch { expected: self.dims, got });
        }
        Ok(())
    }
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

    /// Segment one scan: a [`Classifier`] built, used once over every
    /// voxel and dropped. Returns the label volume (on the intraop grid).
    fn segment_intraop(
        intraop_intensity: &Volume<f32>,
        preop_seg: &Volume<u8>,
        cfg: &SegmentConfig,
    ) -> Result<Volume<u8>, SegmentError> {
        let every: Vec<usize> = (0..intraop_intensity.dims().len()).collect();
        Ok(Classifier::new(preop_seg, cfg).classify(intraop_intensity, &every, preop_seg)?.labels)
    }

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
    fn a_voxel_outside_the_grid_is_a_typed_error() {
        let d = Dims::new(4, 4, 4);
        let sp = Spacing::iso(1.0);
        let seg = Volume::from_fn(d, sp, |x, _, _| if x < 2 { 1u8 } else { 2 });
        let intensity = Volume::from_fn(d, sp, |x, _, _| if x < 2 { 10.0 } else { 90.0 });
        let classifier = Classifier::new(&seg, &SegmentConfig { per_class: 8, ..Default::default() });
        let err = classifier.classify(&intensity, &[3, 64], &seg).unwrap_err();
        assert_eq!(err, SegmentError::VoxelOutOfGrid { index: 64, len: 64 });
        let foreign = Volume::filled(Dims::new(4, 4, 3), sp, 0u8);
        let err = classifier.classify(&intensity, &[3], &foreign).unwrap_err();
        assert_eq!(err, SegmentError::GridMismatch { expected: d, got: foreign.dims() });
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
