//! Property test of the per-scan classification hot path: the parallel
//! slab classifier is bit-identical to the serial oracle, so the result
//! never depends on the worker thread count.

use brainshift_imaging::volume::{Dims, Spacing, Volume};
use brainshift_segment::{
    classify_matrix, classify_matrix_serial, k_nearest_brute, FeatureStack, KdTree, KnnScratch,
    Prototype,
};
use proptest::prelude::*;

/// Fixed test grid: 13 248 rows, i.e. three full 4096-row classifier
/// slabs and a ragged 960-row tail, so the parallel pass really splits.
const DIMS: (usize, usize, usize) = (24, 24, 23);
const N_VOX: usize = DIMS.0 * DIMS.1 * DIMS.2;

/// Two-channel feature stack: a generated intensity channel plus a fixed
/// synthetic "distance" channel.
fn stack(intensity: &[f32]) -> FeatureStack {
    let dims = Dims::new(DIMS.0, DIMS.1, DIMS.2);
    let sp = Spacing::iso(1.0);
    let mut fs =
        FeatureStack::from_intensity(Volume::from_vec(dims, sp, intensity[..N_VOX].to_vec()));
    let aux = Volume::from_fn(dims, sp, |x, y, z| (x + 2 * y + 3 * z) as f32 * 0.25);
    fs.push_channel(aux, 0.75);
    fs
}

fn prototypes(raw: &[(f32, f32, u8)]) -> Vec<Prototype> {
    raw.iter().map(|&(a, b, l)| Prototype { features: vec![a, b], label: l }).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The parallel slab classifier equals the serial oracle bit-for-bit,
    /// labels and traversal count alike. Slab decomposition depends on
    /// the worker count, so this equality — checked under different
    /// `RAYON_NUM_THREADS` by the verify script — is the thread-count
    /// determinism guarantee.
    #[test]
    fn parallel_classification_matches_serial_oracle(
        base in prop::collection::vec(-5.0f32..5.0, N_VOX),
        // Up to three 32-point leaves, so the visit count depends on pruning.
        protos_raw in prop::collection::vec((-8.0f32..8.0, -8.0f32..8.0, 1u8..6), 3..96),
        k in 1usize..8,
    ) {
        let tree = KdTree::build(prototypes(&protos_raw)).expect("generated prototypes are valid");
        let matrix = stack(&base).to_matrix();
        let (par, par_visits) = classify_matrix(&matrix, &tree, k);
        let (ser, ser_visits) = classify_matrix_serial(&matrix, &tree, k);
        prop_assert_eq!(par.data(), ser.data());
        prop_assert_eq!(par_visits, ser_visits);
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
