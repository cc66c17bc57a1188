//! Property tests of the per-scan classification hot path: a pass over
//! any list of voxels gives each listed voxel its whole-volume label and
//! every other voxel the fill label, its leaf visits add up voxel by
//! voxel, and the parallel pass is bit-identical to the serial oracle,
//! so the result never depends on the worker thread count.

use brainshift_imaging::volume::{Dims, Spacing, Volume};
use brainshift_segment::{k_nearest_brute, Classifier, KdTree, KnnScratch, Prototype, SegmentConfig};
use proptest::prelude::*;

/// Fixed test grid: 13 248 voxels, i.e. 25 full 512-voxel classifier
/// slabs and a ragged 448-voxel tail, so the parallel pass over the
/// whole volume (and over a third of it) really splits.
const DIMS: (usize, usize, usize) = (24, 24, 23);
const N_VOX: usize = DIMS.0 * DIMS.1 * DIMS.2;

/// A preoperative segmentation of up to five classes in slabs along x,
/// so each class has a distance channel with real structure.
fn segmentation(cuts: &[usize]) -> Volume<u8> {
    let dims = Dims::new(DIMS.0, DIMS.1, DIMS.2);
    Volume::from_fn(dims, Spacing::iso(1.0), |x, y, _| {
        1 + cuts.iter().filter(|&&c| x + y / 4 >= c).count() as u8
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Over a random voxel subset: listed voxels get the whole-volume
    /// label and the others the fill; the subset's leaf visits and its
    /// complement's add up to the whole volume's; and the parallel pass
    /// equals the serial oracle bit for bit, labels and visits alike.
    /// Slab decomposition depends on the worker count, so this equality —
    /// checked under different `RAYON_NUM_THREADS` by the verify script —
    /// is the thread-count determinism guarantee.
    #[test]
    fn a_voxel_subset_gets_its_whole_volume_labels_and_the_fill_elsewhere(
        intensity in prop::collection::vec(-5.0f32..5.0, N_VOX),
        cuts in prop::collection::vec(2usize..28, 1..5),
        // About a third of the voxels are listed.
        picked in prop::collection::vec(0u8..3, N_VOX),
        k in 1usize..8,
    ) {
        let seg = segmentation(&cuts);
        let sp = seg.spacing();
        // Up to 100 prototypes: several 32-point leaves, so the visit
        // count depends on pruning.
        let cfg = SegmentConfig { k, per_class: 20, ..Default::default() };
        let classifier = Classifier::new(&seg, &cfg);
        let scan = Volume::from_vec(seg.dims(), sp, intensity);
        let fill = Volume::filled(seg.dims(), sp, 255u8);
        let every: Vec<usize> = (0..N_VOX).collect();
        let (subset, rest): (Vec<usize>, Vec<usize>) = every.iter().partition(|&&v| picked[v] == 0);

        let whole = classifier.classify(&scan, &every, &fill).expect("valid prototypes");
        let band = classifier.classify(&scan, &subset, &fill).expect("valid prototypes");
        let other = classifier.classify(&scan, &rest, &fill).expect("valid prototypes");
        for v in 0..N_VOX {
            let want = if picked[v] == 0 { whole.labels.data()[v] } else { 255 };
            prop_assert!(band.labels.data()[v] == want, "voxel {}: {} vs {}", v, band.labels.data()[v], want);
        }
        prop_assert_eq!(band.leaf_visits + other.leaf_visits, whole.leaf_visits);

        let serial = classifier.classify_serial(&scan, &subset, &fill).expect("valid prototypes");
        prop_assert_eq!(band.labels.data(), serial.labels.data());
        prop_assert_eq!(band.leaf_visits, serial.leaf_visits);
        let serial = classifier.classify_serial(&scan, &every, &fill).expect("valid prototypes");
        prop_assert_eq!(whole.labels.data(), serial.labels.data());
        prop_assert_eq!(whole.leaf_visits, serial.leaf_visits);
    }

    /// The tree's neighbour list and vote equal a brute-force scan of
    /// every prototype, on integer-grid prototypes and queries where exact
    /// distance ties (and duplicate points) are the rule: the candidate
    /// order `(distance², prototype index)` and the lowest-label vote tie
    /// break must survive any leaf layout. k = 17 exceeds the 16 labels
    /// the small-k tally holds, so it takes the 256-bin histogram.
    #[test]
    fn tree_vote_equals_brute_force_vote_under_distance_ties(
        protos_raw in prop::collection::vec((-3i8..4, -3i8..4, -2i8..3, 0u8..40), 1..120),
        queries in prop::collection::vec((-4i8..5, -4i8..5, -3i8..4), 1..24),
    ) {
        let protos: Vec<Prototype> = protos_raw
            .iter()
            .map(|&(a, b, c, l)| Prototype { features: vec![a.into(), b.into(), c.into()], label: l })
            .collect();
        let tree = KdTree::build(protos.clone()).expect("generated prototypes are valid");
        let mut scratch = KnnScratch::new();
        for &(a, b, c) in &queries {
            let q: [f32; 3] = [a.into(), b.into(), c.into()];
            for k in [1usize, 5, 17] {
                let brute = k_nearest_brute(&protos, &q, k);
                let got = tree.classify_with(&mut scratch, &q, k);
                let tree_list: Vec<(u32, usize)> =
                    scratch.neighbors().iter().map(|&(d, i)| (d.to_bits(), i as usize)).collect();
                let brute_list: Vec<(u32, usize)> = brute.iter().map(|&(d, i)| (d.to_bits(), i)).collect();
                prop_assert!(tree_list == brute_list, "k = {}: {:?} vs {:?}", k, tree_list, brute_list);
                let mut counts = [0u32; 256];
                for &(_, i) in &brute {
                    counts[protos[i].label as usize] += 1;
                }
                let top = *counts.iter().max().expect("256 bins");
                let want = counts.iter().position(|&c| c == top).expect("a maximum exists") as u8;
                prop_assert!(got == want, "k = {}: label {} vs {}", k, got, want);
            }
        }
    }
}
